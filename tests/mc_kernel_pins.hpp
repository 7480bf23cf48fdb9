// Monte-Carlo kernel pins and loss set-ups shared by the delivery
// equivalence suites.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "graph/shortest_path.hpp"
#include "playback/delivery_model.hpp"
#include "util/rng.hpp"

namespace dg::test {

/// Every Monte-Carlo kernel pin this CPU runs, kAuto first. A pin it
/// cannot run is appended to `missing`, so a suite can check the others
/// and then report the gap with GTEST_SKIP instead of dropping the pin
/// silently.
inline std::vector<playback::detail::McKernel> runnableMcKernels(
    std::string& missing) {
  using playback::detail::McKernel;
  const std::pair<McKernel, const char*> pins[] = {
      {McKernel::kAuto, "auto"},
      {McKernel::kFusedScalar, "fused scalar"},
      {McKernel::kLanes4Avx2, "4-lane AVX2"},
      {McKernel::kLanes8Avx512, "8-lane AVX-512"},
  };
  std::vector<McKernel> kernels;
  missing.clear();
  for (const auto& [kernel, name] : pins) {
    if (playback::detail::mcKernelSupported(kernel)) {
      kernels.push_back(kernel);
    } else {
      missing += missing.empty() ? name : std::string(", ") + name;
    }
  }
  return kernels;
}

/// `dg`'s member edges in loss-assignment order: the earliest source ->
/// `toward` path inside `dg` first, so its outcomes reach Dijkstra runs,
/// then the other members in random order.
inline std::vector<graph::EdgeId> memberOrder(
    const graph::Graph& g, const graph::DisseminationGraph& dg,
    std::span<const util::SimTime> latencies, graph::NodeId toward,
    util::Rng& rng) {
  std::vector<util::SimTime> memberLatencies(g.edgeCount(), util::kNever);
  for (const graph::EdgeId e : dg.edges()) memberLatencies[e] = latencies[e];
  std::vector<graph::EdgeId> order =
      graph::shortestPath(g, dg.source(), toward, memberLatencies).edges;
  std::vector<graph::EdgeId> rest;
  for (const graph::EdgeId e : dg.edges()) {
    if (std::find(order.begin(), order.end(), e) == order.end())
      rest.push_back(e);
  }
  for (std::size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.uniformInt(i)]);
  }
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

/// The first `members` of `cover`'s members in memberOrder: a graph of
/// exactly that many member edges that still reaches `toward`, so a
/// suite can step across the key's word boundary (31, 32, 33 members).
inline graph::DisseminationGraph memberSubset(
    const graph::Graph& g, const graph::DisseminationGraph& cover,
    std::span<const util::SimTime> latencies, graph::NodeId toward,
    std::size_t members, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<graph::EdgeId> order =
      memberOrder(g, cover, latencies, toward, rng);
  graph::DisseminationGraph subset(g, cover.source(), cover.destination());
  for (std::size_t k = 0; k < std::min(members, order.size()); ++k)
    subset.addEdge(order[k]);
  return subset;
}

/// Loss rate of the members that are not lossy (see lossyMemberLosses).
enum class NearLossless {
  /// 5e-4: a sample deviates off the lossy members now and then.
  kSparse,
  /// Just under 1 / samples: many lane-drawn samples are flagged and
  /// re-drawn.
  kJustUnder,
  /// 1e-17: 1 - loss rounds to 1, so the on-time threshold is 2^53 and
  /// the lane kernels compare against their sentinel bound. The first
  /// lossy member is at loss 1.
  kNeverDeviates,
};

/// Per-edge loss rates that give `dg` exactly `lossy` lossy member edges
/// (two or more samples) -- loss above 1 / samples, the threshold of the
/// evaluators' dense pattern tally and of the lane kernels' member
/// classes -- so a suite can step across the dense table's cap.
/// Heavy losses (5-60%) go first to the members of the earliest
/// source -> `toward` path inside `dg`, then to random other members.
/// Every other member is near-lossless at the `nearLossless` rate,
/// except the next one in line, which sits exactly at the threshold and
/// still counts as near-lossless.
inline std::vector<double> lossyMemberLosses(
    const graph::Graph& g, const graph::DisseminationGraph& dg,
    std::span<const util::SimTime> latencies, graph::NodeId toward,
    std::size_t lossy, int samples, std::uint64_t seed,
    NearLossless nearLossless = NearLossless::kSparse) {
  util::Rng rng(seed);
  const std::vector<graph::EdgeId> order =
      memberOrder(g, dg, latencies, toward, rng);
  const double threshold = 1.0 / static_cast<double>(samples);
  const double near = nearLossless == NearLossless::kSparse ? 5e-4
                      : nearLossless == NearLossless::kJustUnder
                          ? std::nextafter(threshold, 0.0)
                          : 1e-17;
  // Heavy losses stay clear of the threshold; with one sample nothing can
  // exceed it, and they stay at 0.9.
  const double heavyFloor =
      std::min(0.9, std::max(0.05, 1.5 / static_cast<double>(samples)));
  std::vector<double> losses(g.edgeCount(), near);
  for (std::size_t k = 0; k < std::min(lossy, order.size()); ++k) {
    losses[order[k]] = rng.uniform(heavyFloor, std::max(heavyFloor, 0.6));
  }
  if (nearLossless == NearLossless::kNeverDeviates && lossy > 0 &&
      !order.empty()) {
    losses[order[0]] = 1.0;
  }
  if (lossy < order.size()) losses[order[lossy]] = threshold;
  return losses;
}

/// Lanes a kernel pin draws a keyed call in: 1 for the serial kernel,
/// and for a call of fewer samples than lanes (kAuto is not covered).
inline int pinnedLanes(playback::detail::McKernel kernel, int samples) {
  using playback::detail::McKernel;
  const int lanes = kernel == McKernel::kLanes8Avx512 ? 8
                    : kernel == McKernel::kLanes4Avx2 ? 4
                                                      : 1;
  return samples >= lanes ? lanes : 1;
}

/// Samples a keyed call drawn in `lanes` lanes must re-draw serially:
/// the lane-drawn ones (the first lanes * floor(samples / lanes)) in
/// which some near-lossless member (loss at or below 1 / samples)
/// deviates, read off the serial stream the call draws from `seed`.
inline std::uint64_t expectedReplays(const graph::DisseminationGraph& dg,
                                     std::span<const double> losses,
                                     int samples, std::uint64_t seed,
                                     int lanes) {
  if (lanes <= 1) return 0;
  constexpr double kScale53 = 9007199254740992.0;  // 2^53
  const std::vector<graph::EdgeId>& members = dg.edges();
  const double threshold = 1.0 / static_cast<double>(samples);
  util::Rng rng(seed);
  std::uint64_t replays = 0;
  const int laneSamples = lanes * (samples / lanes);
  for (int s = 0; s < laneSamples; ++s) {
    bool deviates = false;
    for (const graph::EdgeId e : members) {
      const std::uint64_t k = rng.next() >> 11;
      const auto onTime =
          static_cast<std::uint64_t>(std::ceil((1.0 - losses[e]) * kScale53));
      deviates |= !(losses[e] > threshold) && k >= onTime;
    }
    replays += deviates ? 1 : 0;
  }
  return replays;
}

}  // namespace dg::test
