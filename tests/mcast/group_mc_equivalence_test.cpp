// Group Monte-Carlo equivalence: onTimeCountsMCGroup (batched classify,
// clean-path shortcut, per-pattern counts decided once by monotone
// inference or a Dijkstra run) must reproduce the plain per-sample
// evaluator below count for count -- same per-receiver on-time counts,
// same delivered histogram, same final RNG state -- under every kernel
// pin, with and without recovery, for per-receiver deadlines, and on
// graphs that take the >64-member / >64-receiver fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "graph/shortest_path.hpp"
#include "mc_kernel_pins.hpp"
#include "playback/delivery_model.hpp"
#include "topogen/topogen.hpp"
#include "trace/topology.hpp"
#include "util/rng.hpp"

namespace dg::playback {
namespace {

// ---------------------------------------------------------------------
// Frozen oracle: the group evaluator's per-sample loop as it stood before
// the pattern memo, with its own scratch and a std::priority_queue
// Dijkstra. Do not optimize -- its only value is being the unchanged
// baseline the production evaluator is proven bit-identical against.
// ---------------------------------------------------------------------

/// Bounded earliest-arrival run: every node whose arrival is within
/// `deadline` ends with its exact distance in `dist` (and predecessor in
/// `via`); all others hold a larger value.
void referenceDistancesWithin(const graph::DisseminationGraph& dg,
                              const std::vector<util::SimTime>& weights,
                              util::SimTime deadline,
                              std::vector<util::SimTime>& dist,
                              std::vector<graph::EdgeId>& via) {
  const graph::Graph& overlay = dg.overlay();
  std::fill(dist.begin(), dist.end(), util::kNever);
  std::fill(via.begin(), via.end(), graph::kInvalidEdge);
  using Entry = std::pair<util::SimTime, graph::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[dg.source()] = 0;
  queue.push({0, dg.source()});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    if (d > deadline) break;
    for (const graph::EdgeId e : dg.outEdges(u)) {
      if (weights[e] == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      const util::SimTime nd = d + weights[e];
      if (nd < dist[v]) {
        dist[v] = nd;
        via[v] = e;
        queue.push({nd, v});
      }
    }
  }
}

void referenceOnTimeCountsMCGroup(const graph::DisseminationGraph& dg,
                                  const std::vector<graph::NodeId>& receivers,
                                  const std::vector<util::SimTime>& deadlines,
                                  const std::vector<double>& lossRates,
                                  const std::vector<util::SimTime>& latencies,
                                  const DeliveryModelParams& params,
                                  int samples, util::Rng& rng,
                                  std::vector<int>& onTimeCounts,
                                  std::vector<int>& deliveredHistogram) {
  const graph::Graph& overlay = dg.overlay();
  const std::size_t receiverCount = receivers.size();
  onTimeCounts.assign(receiverCount, 0);
  deliveredHistogram.assign(receiverCount + 1, 0);
  if (samples <= 0) return;
  std::vector<util::SimTime> sampledHop(overlay.edgeCount(), util::kNever);
  std::vector<util::SimTime> dist(overlay.nodeCount());
  std::vector<graph::EdgeId> via(overlay.nodeCount());

  util::SimTime maxDeadline = 0;
  for (const util::SimTime d : deadlines) {
    maxDeadline = std::max(maxDeadline, d);
  }
  referenceDistancesWithin(dg, latencies, maxDeadline, dist, via);
  std::vector<char> cleanOnTime(receiverCount);
  for (std::size_t r = 0; r < receiverCount; ++r) {
    cleanOnTime[r] = dist[receivers[r]] <= deadlines[r] ? 1 : 0;
  }

  const std::vector<graph::EdgeId>& members = dg.edges();
  const std::size_t memberCount = members.size();
  std::vector<std::uint64_t> thrOnTime(memberCount);
  std::vector<std::uint64_t> thrRecovered(memberCount);
  std::vector<util::SimTime> latency(memberCount);
  std::vector<util::SimTime> recoveredLatency(memberCount);
  constexpr double kScale53 = 9007199254740992.0;  // 2^53
  for (std::size_t i = 0; i < memberCount; ++i) {
    const double p = lossRates[members[i]];
    const util::SimTime lat = latencies[members[i]];
    thrOnTime[i] = static_cast<std::uint64_t>(std::ceil((1.0 - p) * kScale53));
    thrRecovered[i] =
        params.recoveryEnabled
            ? static_cast<std::uint64_t>(std::ceil((1.0 - p * p) * kScale53))
            : thrOnTime[i];
    latency[i] = lat;
    recoveredLatency[i] = 3 * lat + params.packetInterval;
  }

  std::vector<char> memberOnCleanPath(memberCount, 0);
  for (std::size_t r = 0; r < receiverCount; ++r) {
    if (cleanOnTime[r] == 0) continue;
    for (graph::NodeId n = receivers[r]; n != dg.source();) {
      const graph::EdgeId e = via[n];
      const std::size_t i = static_cast<std::size_t>(
          std::lower_bound(members.begin(), members.end(), e) -
          members.begin());
      memberOnCleanPath[i] = 1;
      n = overlay.edge(e).from;
    }
  }

  util::Rng localRng = rng;
  for (int s = 0; s < samples; ++s) {
    bool deviates = false;
    bool touches = false;
    for (std::size_t i = 0; i < memberCount; ++i) {
      const std::uint64_t k = localRng.next() >> 11;
      const util::SimTime hop = k < thrOnTime[i]      ? latency[i]
                                : k < thrRecovered[i] ? recoveredLatency[i]
                                                      : util::kNever;
      sampledHop[members[i]] = hop;
      if (hop != latency[i]) {
        deviates = true;
        touches |= memberOnCleanPath[i] != 0;
      }
    }
    int deliveredCount = 0;
    if (deviates && touches) {
      referenceDistancesWithin(dg, sampledHop, maxDeadline, dist, via);
      for (std::size_t r = 0; r < receiverCount; ++r) {
        if (dist[receivers[r]] <= deadlines[r]) {
          ++onTimeCounts[r];
          ++deliveredCount;
        }
      }
    } else {
      for (std::size_t r = 0; r < receiverCount; ++r) {
        if (cleanOnTime[r] != 0) {
          ++onTimeCounts[r];
          ++deliveredCount;
        }
      }
    }
    ++deliveredHistogram[static_cast<std::size_t>(deliveredCount)];
  }
  rng = localRng;
}

// ---------------------------------------------------------------------

/// Every kernel pin this CPU runs.
std::vector<detail::McKernel> allKernels() {
  std::string missing;
  return test::runnableMcKernels(missing);
}

/// The kernel pins this CPU cannot run, for the suites' closing
/// GTEST_SKIP.
std::string kernelsNotRunHere() {
  std::string missing;
  test::runnableMcKernels(missing);
  return missing;
}

/// Restores automatic kernel dispatch however a test exits.
struct KernelPinGuard {
  ~KernelPinGuard() { detail::setMcKernelForTest(detail::McKernel::kAuto); }
};

/// Per-edge conditions: mostly healthy, a quarter lossy (some heavily),
/// a tenth slowed down -- enough for every outcome band to fire.
struct Conditions {
  std::vector<double> losses;
  std::vector<util::SimTime> latencies;
};

Conditions randomConditions(const graph::Graph& g, std::uint64_t seed) {
  util::Rng setup(seed * 1979 + 11);
  Conditions c{std::vector<double>(g.edgeCount()), g.baseLatencies()};
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    c.losses[e] = setup.bernoulli(0.25) ? setup.uniform(0.0, 0.9) : 1e-4;
    if (setup.bernoulli(0.1)) c.latencies[e] *= 4;
  }
  return c;
}

/// Random receiver set (distinct, source excluded) with per-receiver
/// deadlines spread widely around the default (25-160 ms), so a sample
/// often reaches one receiver well after another's deadline.
void pickReceivers(const graph::Graph& g, graph::NodeId source,
                   std::size_t count, std::uint64_t seed,
                   std::vector<graph::NodeId>& receivers,
                   std::vector<util::SimTime>& deadlines) {
  util::Rng pick(seed);
  receivers.clear();
  deadlines.clear();
  while (receivers.size() < count) {
    const auto n = static_cast<graph::NodeId>(pick.uniformInt(g.nodeCount()));
    if (n == source ||
        std::find(receivers.begin(), receivers.end(), n) != receivers.end())
      continue;
    receivers.push_back(n);
    deadlines.push_back(util::milliseconds(
        25 + pick.uniformInt(std::int64_t{0}, std::int64_t{135})));
  }
}

/// Runs the production evaluator under every kernel pin and compares it
/// with the oracle: counts, histogram and the RNG state afterwards. Every
/// pin must also do the same verdict work, and a pinned kernel must
/// re-draw exactly the lane-drawn samples in which a near-lossless
/// member deviates. Returns the samples the pinned kernels re-drew.
std::uint64_t expectMatchesOracle(const graph::DisseminationGraph& dg,
                                  const std::vector<graph::NodeId>& receivers,
                                  const std::vector<util::SimTime>& deadlines,
                                  const Conditions& c,
                                  const DeliveryModelParams& params,
                                  int samples, std::uint64_t seed,
                                  DeliveryWorkspace& ws,
                                  const std::string& label) {
  std::vector<int> refCounts;
  std::vector<int> refHistogram;
  util::Rng refRng(seed);
  referenceOnTimeCountsMCGroup(dg, receivers, deadlines, c.losses,
                               c.latencies, params, samples, refRng,
                               refCounts, refHistogram);
  const std::uint64_t refFinal = refRng.next();
  // Keyed calls only: the unkeyed fallback draws every sample serially.
  const bool keyed = dg.edges().size() <= 64 && receivers.size() <= 64;

  KernelPinGuard guard;
  std::optional<DeliveryWork> firstWork;
  std::uint64_t replayed = 0;
  for (const detail::McKernel kernel : allKernels()) {
    detail::setMcKernelForTest(kernel);
    std::vector<int> counts(receivers.size(), -1);
    std::vector<int> histogram(receivers.size() + 1, -1);
    const DeliveryWork workBefore = ws.work;
    const std::uint64_t replaysBefore = ws.mcReplayedSamples;
    util::Rng rng(seed);
    onTimeCountsMCGroup(dg, receivers, deadlines, c.losses, c.latencies,
                        params, samples, rng, ws, counts, histogram);
    const std::string where = label + " kernel " +
                              std::to_string(static_cast<int>(kernel)) +
                              " samples " + std::to_string(samples);
    EXPECT_EQ(counts, refCounts) << where;
    EXPECT_EQ(histogram, refHistogram) << where;
    EXPECT_EQ(rng.next(), refFinal) << "RNG state diverged: " << where;
    const DeliveryWork work = ws.work - workBefore;
    if (!firstWork) firstWork = work;
    EXPECT_EQ(work, *firstWork) << "verdict work: " << where;
    if (kernel != detail::McKernel::kAuto) {
      const std::uint64_t replays = ws.mcReplayedSamples - replaysBefore;
      EXPECT_EQ(replays, keyed ? test::expectedReplays(
                                     dg, c.losses, samples, seed,
                                     test::pinnedLanes(kernel, samples))
                               : 0u)
          << "replays: " << where;
      replayed += replays;
    }
  }
  return replayed;
}

/// True if the 4-lane pin runs here, so flagged samples get re-drawn.
bool lanePinsRun() {
  const std::vector<detail::McKernel> kernels = allKernels();
  return std::find(kernels.begin(), kernels.end(),
                   detail::McKernel::kLanes4Avx2) != kernels.end();
}

/// The union of each receiver's flooding graph pruned to half its
/// deadline: a graph with few members.
graph::DisseminationGraph prunedUnion(
    const graph::Graph& g, graph::NodeId source,
    const std::vector<graph::NodeId>& receivers,
    const std::vector<util::SimTime>& deadlines) {
  graph::DisseminationGraph pruned(g, source, receivers.front());
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    graph::DisseminationGraph sub =
        graph::floodingGraph(g, source, receivers[r]);
    sub.pruneDeadlineInfeasible(g.baseLatencies(), deadlines[r] / 2);
    pruned.unite(sub);
  }
  return pruned;
}

TEST(GroupMcEquivalence, MatchesFrozenOracleOnLtn12) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const graph::NodeId source = topology.at("NYC");
  DeliveryWorkspace ws;  // shared across every call: reuse must not leak
  const int sampleCounts[] = {1, 7, 8, 9, 31, 33, 1000, 1001};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Conditions c = randomConditions(g, seed);
    for (std::size_t receiverCount = 1; receiverCount <= 8; ++receiverCount) {
      std::vector<graph::NodeId> receivers;
      std::vector<util::SimTime> deadlines;
      pickReceivers(g, source, receiverCount, seed * 100 + receiverCount,
                    receivers, deadlines);
      // Two graph shapes: the full flooding cover (64 members, both key
      // words) and the union of each receiver's
      // flooding graph pruned to half its deadline (few members).
      graph::DisseminationGraph flooding =
          graph::floodingGraph(g, source, receivers.front());
      const graph::DisseminationGraph pruned =
          prunedUnion(g, source, receivers, deadlines);
      for (const bool recovery : {true, false}) {
        DeliveryModelParams params;
        params.recoveryEnabled = recovery;
        for (const int samples : sampleCounts) {
          const std::string label =
              "seed " + std::to_string(seed) + " receivers " +
              std::to_string(receiverCount) +
              (recovery ? " recovery" : " no-recovery");
          expectMatchesOracle(flooding, receivers, deadlines, c, params,
                              samples, seed, ws, label + " flooding");
          expectMatchesOracle(pruned, receivers, deadlines, c, params,
                              samples, seed, ws, label + " pruned");
        }
      }
    }
  }
  if (const std::string missing = kernelsNotRunHere(); !missing.empty()) {
    GTEST_SKIP() << "kernels not run here: " << missing;
  }
}

// Count-then-decide and the lane kernels for receiver sets, branch by
// branch: L = 0..7 lossy members (crossing the dense tally's cap of 6)
// on the way to a receiver, one member exactly at the lossy threshold,
// near-lossless members that deviate now and then, that sit just under
// the threshold (many samples flagged and re-drawn), or whose on-time
// threshold is 2^53 (the kernels' sentinel bound) next to a member at
// loss 1; recovery on and off; sample counts 1, 7, 8, 1000 and 1001;
// graphs of different member counts, 31, 32, 33 and 64 among them; one
// workspace across every call.
TEST(GroupMcEquivalence, CountThenDecideMatchesOracleForEveryLossyCount) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const graph::NodeId source = topology.at("NYC");
  DeliveryWorkspace ws;
  std::uint64_t replayed = 0;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const std::size_t receiverCount : {std::size_t{3}, std::size_t{5}}) {
      std::vector<graph::NodeId> receivers;
      std::vector<util::SimTime> deadlines;
      pickReceivers(g, source, receiverCount, seed * 31 + receiverCount,
                    receivers, deadlines);
      const graph::DisseminationGraph flooding =
          graph::floodingGraph(g, source, receivers.front());
      ASSERT_EQ(flooding.edges().size(), 64u);
      const graph::DisseminationGraph pruned =
          prunedUnion(g, source, receivers, deadlines);
      // One shortest path per receiver: a tree, each receiver's path
      // bound widened to "lost" on the other branches.
      graph::DisseminationGraph tree(g, source, receivers.front());
      for (const graph::NodeId receiver : receivers) {
        for (const graph::EdgeId e :
             graph::shortestPath(g, source, receiver, g.baseLatencies())
                 .edges)
          tree.addEdge(e);
      }
      std::vector<graph::DisseminationGraph> subsets;
      for (const std::size_t members : {31, 32, 33}) {
        subsets.push_back(test::memberSubset(g, flooding, g.baseLatencies(),
                                             receivers.back(), members,
                                             seed * 100 + members));
      }
      const graph::DisseminationGraph* graphs[] = {
          &tree, &pruned, &subsets[0], &subsets[1], &subsets[2], &flooding};
      for (std::size_t lossy = 0; lossy <= 7; ++lossy) {
        for (const graph::DisseminationGraph* dg : graphs) {
          if (dg->edges().size() < lossy) continue;
          for (const bool recovery : {true, false}) {
            DeliveryModelParams params;
            params.recoveryEnabled = recovery;
            for (const int samples : {1, 7, 8, 1000, 1001}) {
              for (const test::NearLossless near :
                   {test::NearLossless::kSparse,
                    test::NearLossless::kJustUnder,
                    test::NearLossless::kNeverDeviates}) {
                Conditions c{test::lossyMemberLosses(
                                 g, *dg, g.baseLatencies(), receivers.back(),
                                 lossy, samples, seed * 1000 + lossy, near),
                             g.baseLatencies()};
                replayed += expectMatchesOracle(
                    *dg, receivers, deadlines, c, params, samples, seed, ws,
                    "seed " + std::to_string(seed) + " receivers " +
                        std::to_string(receiverCount) + " lossy " +
                        std::to_string(lossy) + " members " +
                        std::to_string(dg->edges().size()) +
                        (recovery ? " recovery" : " no-recovery") +
                        " near-lossless " +
                        std::to_string(static_cast<int>(near)));
              }
            }
          }
        }
      }
    }
  }
  if (lanePinsRun()) EXPECT_GT(replayed, 0u);
  if (const std::string missing = kernelsNotRunHere(); !missing.empty()) {
    GTEST_SKIP() << "kernels not run here: " << missing;
  }
}

// One workspace alternates unicast -> group -> unicast calls on graphs
// of different member counts; every call must match its oracle (a
// unicast call is the one-receiver group of its destination).
TEST(GroupMcEquivalence, WorkspaceReusedAcrossUnicastAndGroupCalls) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const graph::NodeId source = topology.at("NYC");
  const graph::NodeId destination = topology.at("SJC");
  std::vector<graph::NodeId> receivers;
  std::vector<util::SimTime> deadlines;
  pickReceivers(g, source, 4, 77, receivers, deadlines);
  const DeliveryModelParams params;
  const graph::DisseminationGraph flooding =
      graph::floodingGraph(g, source, destination);
  const graph::DisseminationGraph groupFlooding =
      graph::floodingGraph(g, source, receivers.front());
  const graph::DisseminationGraph pruned =
      prunedUnion(g, source, receivers, deadlines);
  const graph::DisseminationGraph unicastPruned = prunedUnion(
      g, source, std::vector<graph::NodeId>{destination},
      std::vector<util::SimTime>{util::milliseconds(80)});
  const std::vector<graph::NodeId> unicastReceiver = {destination};
  const std::vector<util::SimTime> unicastDeadline = {params.deadline};

  struct Call {
    const graph::DisseminationGraph* dg;
    bool unicast;
    std::size_t lossy;
  };
  const Call calls[] = {{&flooding, true, 7},     {&pruned, false, 3},
                        {&unicastPruned, true, 2}, {&groupFlooding, false, 7},
                        {&flooding, true, 1},     {&pruned, false, 6}};
  const int samples = 1000;
  KernelPinGuard guard;
  for (const detail::McKernel kernel : allKernels()) {
    DeliveryWorkspace ws;
    for (std::uint64_t round = 0; round < 3; ++round) {
      for (std::size_t k = 0; k < std::size(calls); ++k) {
        const Call& call = calls[k];
        const std::vector<graph::NodeId>& to =
            call.unicast ? unicastReceiver : receivers;
        const std::vector<util::SimTime>& by =
            call.unicast ? unicastDeadline : deadlines;
        const Conditions c{
            test::lossyMemberLosses(g, *call.dg, g.baseLatencies(),
                                    to.back(), call.lossy, samples,
                                    round * 10 + k),
            g.baseLatencies()};
        const std::uint64_t seed = round * 100 + k;
        std::vector<int> refCounts;
        std::vector<int> refHistogram;
        util::Rng refRng(seed);
        referenceOnTimeCountsMCGroup(*call.dg, to, by, c.losses,
                                     c.latencies, params, samples, refRng,
                                     refCounts, refHistogram);
        const std::string where =
            "kernel " + std::to_string(static_cast<int>(kernel)) +
            " round " + std::to_string(round) + " call " +
            std::to_string(k);
        detail::setMcKernelForTest(kernel);
        util::Rng rng(seed);
        if (call.unicast) {
          EXPECT_EQ(onTimeProbabilityMC(*call.dg, c.losses, c.latencies,
                                        params, samples, rng, ws),
                    static_cast<double>(refCounts[0]) / samples)
              << where;
        } else {
          std::vector<int> counts(to.size(), -1);
          std::vector<int> histogram(to.size() + 1, -1);
          onTimeCountsMCGroup(*call.dg, to, by, c.losses, c.latencies,
                              params, samples, rng, ws, counts, histogram);
          EXPECT_EQ(counts, refCounts) << where;
          EXPECT_EQ(histogram, refHistogram) << where;
        }
        EXPECT_EQ(rng.next(), refRng.next())
            << "RNG state diverged: " << where;
      }
    }
  }
  if (const std::string missing = kernelsNotRunHere(); !missing.empty()) {
    GTEST_SKIP() << "kernels not run here: " << missing;
  }
}

TEST(GroupMcEquivalence, LargeGraphsTakeTheUnkeyedFallback) {
  // A scale-free:n=100 flooding cover has far more than 64 member edges
  // (no 128-bit pattern key), and 70 receivers overflow the 64-bit
  // verdict mask; both must fall back to per-sample scoring unchanged.
  const auto topology = topogen::generateTopology("scale-free:n=100,seed=7");
  const graph::Graph& g = topology.graph();
  const graph::DisseminationGraph flooding = graph::floodingGraph(g, 0, 1);
  ASSERT_GT(flooding.edges().size(), 64u);
  DeliveryWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const Conditions c = randomConditions(g, seed);
    for (const std::size_t receiverCount : {std::size_t{5}, std::size_t{70}}) {
      std::vector<graph::NodeId> receivers;
      std::vector<util::SimTime> deadlines;
      pickReceivers(g, 0, receiverCount, seed + receiverCount, receivers,
                    deadlines);
      for (const bool recovery : {true, false}) {
        DeliveryModelParams params;
        params.recoveryEnabled = recovery;
        for (const int samples : {1, 33, 200}) {
          expectMatchesOracle(
              flooding, receivers, deadlines, c, params, samples, seed, ws,
              "scale-free receivers " + std::to_string(receiverCount));
        }
      }
    }
  }
  if (const std::string missing = kernelsNotRunHere(); !missing.empty()) {
    GTEST_SKIP() << "kernels not run here: " << missing;
  }
}

TEST(GroupMcEquivalence, SingleReceiverMatchesUnicastUnderEveryKernel) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const graph::NodeId source = topology.at("NYC");
  const graph::NodeId destination = topology.at("SJC");
  const graph::DisseminationGraph flooding =
      graph::floodingGraph(g, source, destination);
  // The same edges with another nominal destination: a one-receiver call
  // whose receiver is the graph's destination takes the unicast sample
  // loop, so this one keeps the group loop under test.
  const graph::DisseminationGraph groupFlooding =
      graph::floodingGraph(g, source, topology.at("LAX"));
  const DeliveryModelParams params;
  DeliveryWorkspace ws;
  KernelPinGuard guard;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Conditions c = randomConditions(g, seed);
    for (const detail::McKernel kernel : allKernels()) {
      detail::setMcKernelForTest(kernel);
      util::Rng unicastRng(seed);
      const double unicast = onTimeProbabilityMC(
          flooding, c.losses, c.latencies, params, 1000, unicastRng, ws);
      util::Rng groupRng(seed);
      const graph::NodeId receivers[] = {destination};
      const util::SimTime deadlines[] = {params.deadline};
      int onTime[1] = {0};
      int histogram[2] = {0, 0};
      onTimeCountsMCGroup(groupFlooding, receivers, deadlines, c.losses,
                          c.latencies, params, 1000, groupRng, ws, onTime,
                          histogram);
      EXPECT_EQ(static_cast<double>(onTime[0]) / 1000.0, unicast)
          << "seed " << seed;
      EXPECT_EQ(histogram[1], onTime[0]);
      EXPECT_EQ(groupRng.next(), unicastRng.next()) << "seed " << seed;
    }
  }
  if (const std::string missing = kernelsNotRunHere(); !missing.empty()) {
    GTEST_SKIP() << "kernels not run here: " << missing;
  }
}

}  // namespace
}  // namespace dg::playback
