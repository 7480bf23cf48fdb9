// Monte-Carlo kernel pins and loss set-ups shared by the delivery
// equivalence suites.
#pragma once

#include <algorithm>
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

/// Per-edge loss rates that give `dg` exactly `lossy` lossy member edges
/// (two or more samples) -- loss above 1 / samples, the threshold of the
/// evaluators' dense pattern tally -- so a suite can step across the
/// dense table's cap.
/// Heavy losses (5-60%) go first to the members of the earliest
/// source -> `toward` path inside `dg`, so their outcomes reach Dijkstra
/// runs, then to random other members. Every other member is
/// near-lossless at 5e-4, which makes some samples deviate off the lossy
/// members, except the next one in line, which sits exactly at the
/// threshold and still counts as near-lossless.
inline std::vector<double> lossyMemberLosses(
    const graph::Graph& g, const graph::DisseminationGraph& dg,
    std::span<const util::SimTime> latencies, graph::NodeId toward,
    std::size_t lossy, int samples, std::uint64_t seed) {
  util::Rng rng(seed);
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
  // Heavy losses stay clear of the threshold; with one sample nothing can
  // exceed it, and they stay at 0.9.
  const double heavyFloor =
      std::min(0.9, std::max(0.05, 1.5 / static_cast<double>(samples)));
  std::vector<double> losses(g.edgeCount(), 5e-4);
  for (std::size_t k = 0; k < std::min(lossy, order.size()); ++k) {
    losses[order[k]] = rng.uniform(heavyFloor, std::max(heavyFloor, 0.6));
  }
  if (lossy < order.size()) {
    losses[order[lossy]] = 1.0 / static_cast<double>(samples);
  }
  return losses;
}

}  // namespace dg::test
