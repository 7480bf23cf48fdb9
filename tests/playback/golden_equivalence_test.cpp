// Golden equivalence: the optimized playback hot path (condition-timeline
// cursor, reusable delivery workspaces, decision memo) must produce
// results and telemetry *byte-identical* to the per-interval
// materialization path, and the optimized evaluators must match the
// frozen reference evaluators (tests/reference_evaluators.*), at any
// thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "mc_kernel_pins.hpp"
#include "playback/delivery_model.hpp"
#include "playback/experiment.hpp"
#include "playback/playback.hpp"
#include "reference_evaluators.hpp"
#include "graph/dissemination_graph.hpp"
#include "graph/shortest_path.hpp"
#include "routing/targeted_graphs.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "test_support.hpp"
#include "topogen/topogen.hpp"
#include "util/rng.hpp"

namespace dg {
namespace {

/// Randomized ltn12 trace with enough loss/latency events to exercise
/// both the deterministic and the Monte-Carlo evaluation paths.
trace::Trace randomTrace(const graph::Graph& g, std::size_t intervals,
                         std::uint64_t seed) {
  trace::Trace tr =
      test::healthyTrace(g, intervals, util::seconds(10), 1e-4);
  util::Rng rng(seed);
  for (std::size_t k = 0; k < intervals; ++k) {
    const auto e = static_cast<graph::EdgeId>(
        rng.uniformInt(static_cast<std::uint64_t>(g.edgeCount())));
    const auto t = static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::uint64_t>(intervals)));
    trace::LinkConditions c = tr.baseline(e);
    if (rng.bernoulli(0.6)) {
      c.lossRate = rng.uniform(0.05, 0.9);
    } else {
      c.latency = 3 * c.latency + util::milliseconds(10);
    }
    tr.setCondition(e, t, c);
  }
  return tr;
}

void expectResultsIdentical(const playback::FlowSchemeResult& a,
                            const playback::FlowSchemeResult& b) {
  EXPECT_EQ(a.unavailability, b.unavailability);
  EXPECT_EQ(a.unavailableSeconds, b.unavailableSeconds);
  EXPECT_EQ(a.problematicIntervals, b.problematicIntervals);
  EXPECT_EQ(a.averageCost, b.averageCost);
  EXPECT_EQ(a.averageLatencyUs, b.averageLatencyUs);
  ASSERT_EQ(a.problems.size(), b.problems.size());
  for (std::size_t i = 0; i < a.problems.size(); ++i) {
    EXPECT_EQ(a.problems[i].interval, b.problems[i].interval);
    EXPECT_EQ(a.problems[i].missProbability, b.problems[i].missProbability);
  }
}

class GoldenEquivalence : public ::testing::Test {
 protected:
  GoldenEquivalence()
      : topology_(trace::Topology::ltn12()),
        trace_(randomTrace(topology_.graph(), 180, 20170605)) {
    flows_ = playback::transcontinentalFlows(topology_);
    flows_.resize(4);
    params_.mcSamples = 200;
  }

  /// Runs every (flow, scheme) job on one engine and collects results
  /// plus the full telemetry exports.
  std::pair<std::vector<playback::FlowSchemeResult>, std::string> runAll(
      const playback::PlaybackParams& params) const {
    const playback::PlaybackEngine engine(topology_.graph(), trace_,
                                          params);
    telemetry::Telemetry telemetry;
    std::vector<playback::FlowSchemeResult> results;
    for (const routing::Flow flow : flows_) {
      for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
        results.push_back(engine.run(flow, kind, {}, &telemetry));
      }
    }
    return {std::move(results), telemetry::toPrometheus(telemetry.metrics) +
                                    telemetry::toJson(telemetry.metrics)};
  }

  trace::Topology topology_;
  trace::Trace trace_;
  std::vector<routing::Flow> flows_;
  playback::PlaybackParams params_;
};

TEST_F(GoldenEquivalence, CursorVsLegacyByteIdentical) {
  playback::PlaybackParams legacy = params_;
  legacy.conditionCursor = false;  // per-interval owned vectors
  const auto [rOpt, tOpt] = runAll(params_);
  const auto [rLegacy, tLegacy] = runAll(legacy);
  ASSERT_EQ(rOpt.size(), rLegacy.size());
  for (std::size_t i = 0; i < rOpt.size(); ++i) {
    expectResultsIdentical(rOpt[i], rLegacy[i]);
  }
  EXPECT_EQ(tOpt, tLegacy);
}

// With telemetry detached the cursor path may elide select() calls
// across clean steady spans (RoutingScheme::steadyOnBaseline). A
// deviation burst followed by a long clean tail is the adversarial
// shape: the targeted scheme's hold-down counters drain inside the
// tail, and a premature "steady" verdict would freeze the expensive
// targeted graph for the rest of the run (visible as an averageCost
// mismatch against the legacy path, which never elides).
TEST(SteadyFastPath, MatchesLegacyWithoutTelemetry) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  trace::Trace tr = test::healthyTrace(g, 120, util::seconds(10), 1e-4);
  util::Rng rng(777);
  for (std::size_t k = 0; k < 90; ++k) {
    const auto e = static_cast<graph::EdgeId>(
        rng.uniformInt(static_cast<std::uint64_t>(g.edgeCount())));
    const auto t = static_cast<std::size_t>(rng.uniformInt(50));
    trace::LinkConditions c = tr.baseline(e);
    c.lossRate = rng.uniform(0.1, 0.9);
    tr.setCondition(e, t, c);  // deviations only in [0, 50): clean tail
  }

  playback::PlaybackParams optimizedParams;
  optimizedParams.mcSamples = 150;
  playback::PlaybackParams legacyParams = optimizedParams;
  legacyParams.conditionCursor = false;

  const playback::PlaybackEngine optimized(g, tr, optimizedParams);
  const playback::PlaybackEngine legacy(g, tr, legacyParams);
  auto flows = playback::transcontinentalFlows(topology);
  flows.resize(4);
  for (const routing::Flow flow : flows) {
    for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
      expectResultsIdentical(optimized.run(flow, kind, {}),
                             legacy.run(flow, kind, {}));
    }
  }
}

TEST_F(GoldenEquivalence, ThreadCountInvariant) {
  playback::ExperimentConfig config;
  config.flows = flows_;
  config.playback = params_;
  config.threads = 1;
  telemetry::Telemetry tel1;
  const auto r1 =
      runExperiment(topology_.graph(), trace_, config, &tel1);
  config.threads = 4;
  telemetry::Telemetry tel4;
  const auto r4 =
      runExperiment(topology_.graph(), trace_, config, &tel4);
  ASSERT_EQ(r1.perFlow.size(), r4.perFlow.size());
  for (std::size_t i = 0; i < r1.perFlow.size(); ++i) {
    expectResultsIdentical(r1.perFlow[i], r4.perFlow[i]);
  }
  EXPECT_EQ(telemetry::toPrometheus(tel1.metrics),
            telemetry::toPrometheus(tel4.metrics));
  EXPECT_EQ(telemetry::toJson(tel1.metrics),
            telemetry::toJson(tel4.metrics));
}

TEST_F(GoldenEquivalence, MissTimelineMatchesAcrossModes) {
  playback::PlaybackParams legacy = params_;
  legacy.conditionCursor = false;
  const playback::PlaybackEngine optimized(topology_.graph(), trace_,
                                           params_);
  const playback::PlaybackEngine reference(topology_.graph(), trace_,
                                           legacy);
  for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
    const auto a = optimized.missTimeline(flows_[0], kind, {}, 0,
                                          trace_.intervalCount());
    const auto b = reference.missTimeline(flows_[0], kind, {}, 0,
                                          trace_.intervalCount());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
      EXPECT_EQ(a[t], b[t]) << "interval " << t;
    }
  }
}

TEST(DeliveryEquivalence, OptimizedEvaluatorsMatchReference) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const routing::Flow flow{0, 7};
  const auto targeted = routing::buildTargetedGraphs(
      g, flow, g.baseLatencies(), util::milliseconds(65));

  graph::DisseminationGraph floodingGraph(g, flow.source,
                                          flow.destination);
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    floodingGraph.addEdge(e);
  }
  const graph::DisseminationGraph& flooding = floodingGraph;

  const playback::DeliveryModelParams params;
  playback::DeliveryWorkspace ws;  // one workspace across all calls
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    util::Rng setup(seed * 977 + 3);
    std::vector<double> losses(g.edgeCount());
    std::vector<util::SimTime> latencies = g.baseLatencies();
    for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
      losses[e] = setup.bernoulli(0.2) ? setup.uniform(0.0, 0.9) : 1e-4;
      if (setup.bernoulli(0.1)) latencies[e] *= 4;
    }
    for (const graph::DisseminationGraph* dg_ :
         {&targeted.sourceProblem, &targeted.destinationProblem,
          &flooding}) {
      util::Rng a(seed);
      util::Rng b(seed);
      const double optimized = playback::onTimeProbabilityMC(
          *dg_, losses, latencies, params, 300, a, ws);
      const double reference = test::onTimeProbabilityMCReference(
          *dg_, losses, latencies, params, 300, b);
      EXPECT_EQ(optimized, reference) << "seed " << seed;
      EXPECT_EQ(playback::missProbabilityNearLossless(*dg_, losses,
                                                      latencies, params,
                                                      ws),
                test::missProbabilityNearLosslessReference(
                    *dg_, losses, latencies, params))
          << "seed " << seed;
    }
  }
}

// Every Monte-Carlo kernel pin (auto, fused scalar, 4-lane AVX2, 8-lane
// AVX-512) must agree with the frozen reference draw for draw: same
// verdicts, same final RNG state. The sample counts cover splits that
// leave a lane empty (1, 7 with 8 lanes: serial), exact splits (8, 1000
// with 4 lanes) and every kind of serial leftover after the lanes (9, 31,
// 33, 1001, ...); the graph set spans small member counts and a 64-member
// flooding graph (both key words). A pin this CPU cannot run is reported
// with GTEST_SKIP after the others are checked.
TEST(DeliveryEquivalence, AllKernelsMatchReferenceAcrossSeedsAndCounts) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const routing::Flow flow{0, 7};
  const auto targeted = routing::buildTargetedGraphs(
      g, flow, g.baseLatencies(), util::milliseconds(65));

  graph::DisseminationGraph floodingGraph(g, flow.source, flow.destination);
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    floodingGraph.addEdge(e);
  }

  std::string missing;
  const std::vector<playback::detail::McKernel> kernels =
      test::runnableMcKernels(missing);

  const playback::DeliveryModelParams params;
  playback::DeliveryWorkspace ws;
  const int sampleCounts[] = {1, 7, 8, 9, 31, 33, 63, 65, 257, 1000, 1001};
  for (std::uint64_t seed = 100; seed < 107; ++seed) {
    util::Rng setup(seed * 1979 + 11);
    std::vector<double> losses(g.edgeCount());
    std::vector<util::SimTime> latencies = g.baseLatencies();
    for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
      losses[e] = setup.bernoulli(0.25) ? setup.uniform(0.0, 0.9) : 1e-4;
      if (setup.bernoulli(0.1)) latencies[e] *= 4;
    }
    for (const graph::DisseminationGraph* dg_ :
         {&targeted.sourceProblem, &targeted.destinationProblem,
          static_cast<const graph::DisseminationGraph*>(&floodingGraph)}) {
      for (const int samples : sampleCounts) {
        util::Rng refRng(seed);
        const double reference = test::onTimeProbabilityMCReference(
            *dg_, losses, latencies, params, samples, refRng);
        const std::uint64_t refFinal = refRng.next();
        for (const auto kernel : kernels) {
          playback::detail::setMcKernelForTest(kernel);
          util::Rng rng(seed);
          const double got = playback::onTimeProbabilityMC(
              *dg_, losses, latencies, params, samples, rng, ws);
          EXPECT_EQ(got, reference)
              << "kernel " << static_cast<int>(kernel) << " seed " << seed
              << " samples " << samples;
          EXPECT_EQ(rng.next(), refFinal)
              << "RNG state diverged: kernel " << static_cast<int>(kernel)
              << " seed " << seed << " samples " << samples;
        }
        playback::detail::setMcKernelForTest(
            playback::detail::McKernel::kAuto);
      }
    }
  }
  if (!missing.empty()) GTEST_SKIP() << "kernels not run here: " << missing;
}

// Count-then-decide and the lane kernels, branch by branch: calls with
// L = 0..7 lossy members (loss above 1 / samples), crossing the dense
// tally's cap of 6; one member exactly at the threshold; near-lossless
// members that deviate now and then, that sit just under the threshold
// (many lane-drawn samples flagged and re-drawn), or whose loss is so
// small that the on-time threshold is 2^53 (the kernels' sentinel bound)
// next to a member at loss 1; recovery on and off (off leaves the
// recovered band empty); sample counts that run serially (1, 7) or split
// into lanes exactly (8, 1000) or with leftovers (1001); graphs of 3 to
// 64 member edges, 31, 32 and 33 among them, so the high key word is
// used. One workspace serves every call, so a count or bound left over
// from an earlier call would show. Under every kernel pin each call must
// match the frozen reference and its final RNG state, do the same
// verdict work, and re-draw exactly the lane-drawn samples in which a
// near-lossless member deviates.
TEST(DeliveryEquivalence, CountThenDecideMatchesReferenceForEveryLossyCount) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const routing::Flow flow{topology.at("NYC"), topology.at("SJC")};
  const auto targeted = routing::buildTargetedGraphs(
      g, flow, g.baseLatencies(), util::milliseconds(65));
  const graph::DisseminationGraph flooding =
      graph::floodingGraph(g, flow.source, flow.destination);
  // On one path every member is on it, so a pattern's widened path bound
  // is the pattern itself.
  const graph::DisseminationGraph singlePath = graph::singlePathGraph(
      g, flow.source, flow.destination,
      graph::shortestPath(g, flow.source, flow.destination,
                          g.baseLatencies())
          .edges);
  std::vector<util::SimTime> latencies = g.baseLatencies();
  for (graph::EdgeId e = 0; e < g.edgeCount(); e += 5) latencies[e] *= 2;
  std::vector<graph::DisseminationGraph> subsets;
  for (const std::size_t members : {31, 32, 33}) {
    subsets.push_back(test::memberSubset(g, flooding, latencies,
                                         flow.destination, members, members));
    ASSERT_EQ(subsets.back().edges().size(), members);
  }
  ASSERT_EQ(flooding.edges().size(), 64u);
  const graph::DisseminationGraph* graphs[] = {
      &singlePath, &targeted.sourceProblem, &targeted.destinationProblem,
      &subsets[0], &subsets[1], &subsets[2], &flooding};

  std::string missing;
  const std::vector<playback::detail::McKernel> kernels =
      test::runnableMcKernels(missing);
  playback::DeliveryWorkspace ws;
  std::uint64_t replayed = 0;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (std::size_t lossy = 0; lossy <= 7; ++lossy) {
      for (const graph::DisseminationGraph* dg : graphs) {
        if (dg->edges().size() < lossy) continue;
        for (const bool recovery : {true, false}) {
          playback::DeliveryModelParams params;
          params.recoveryEnabled = recovery;
          for (const int samples : {1, 7, 8, 1000, 1001}) {
            for (const test::NearLossless near :
                 {test::NearLossless::kSparse, test::NearLossless::kJustUnder,
                  test::NearLossless::kNeverDeviates}) {
              const std::vector<double> losses = test::lossyMemberLosses(
                  g, *dg, latencies, flow.destination, lossy, samples,
                  seed * 100 + lossy, near);
              util::Rng refRng(seed);
              const double reference = test::onTimeProbabilityMCReference(
                  *dg, losses, latencies, params, samples, refRng);
              const std::uint64_t refFinal = refRng.next();
              std::optional<playback::DeliveryWork> firstWork;
              for (const auto kernel : kernels) {
                playback::detail::setMcKernelForTest(kernel);
                const playback::DeliveryWork workBefore = ws.work;
                const std::uint64_t replaysBefore = ws.mcReplayedSamples;
                util::Rng rng(seed);
                const double got = playback::onTimeProbabilityMC(
                    *dg, losses, latencies, params, samples, rng, ws);
                const std::string where =
                    "kernel " + std::to_string(static_cast<int>(kernel)) +
                    " seed " + std::to_string(seed) + " lossy " +
                    std::to_string(lossy) + " members " +
                    std::to_string(dg->edges().size()) +
                    (recovery ? " recovery" : " no-recovery") +
                    " samples " + std::to_string(samples) +
                    " near-lossless " +
                    std::to_string(static_cast<int>(near));
                EXPECT_EQ(got, reference) << where;
                EXPECT_EQ(rng.next(), refFinal)
                    << "RNG state diverged: " << where;
                const playback::DeliveryWork work = ws.work - workBefore;
                if (!firstWork) firstWork = work;
                EXPECT_EQ(work, *firstWork) << "verdict work: " << where;
                if (kernel != playback::detail::McKernel::kAuto) {
                  const std::uint64_t replays =
                      ws.mcReplayedSamples - replaysBefore;
                  EXPECT_EQ(replays,
                            test::expectedReplays(
                                *dg, losses, samples, seed,
                                test::pinnedLanes(kernel, samples)))
                      << "replays: " << where;
                  replayed += replays;
                }
              }
              playback::detail::setMcKernelForTest(
                  playback::detail::McKernel::kAuto);
            }
          }
        }
      }
    }
  }
  if (std::find(kernels.begin(), kernels.end(),
                playback::detail::McKernel::kLanes4Avx2) != kernels.end())
    EXPECT_GT(replayed, 0u);
  if (!missing.empty()) GTEST_SKIP() << "kernels not run here: " << missing;
}

// Beyond 64 member edges the pattern key does not fit and every sample
// is scored directly (the unkeyed fallback); it too must match the
// frozen reference draw for draw.
TEST(DeliveryEquivalence, UnkeyedFallbackMatchesReference) {
  const auto topology = topogen::generateTopology("scale-free:n=100,seed=7");
  const graph::Graph& g = topology.graph();
  const graph::DisseminationGraph flooding = graph::floodingGraph(g, 0, 1);
  ASSERT_GT(flooding.edges().size(), 64u);
  playback::DeliveryWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng setup(seed * 1979 + 11);
    std::vector<double> losses(g.edgeCount());
    std::vector<util::SimTime> latencies = g.baseLatencies();
    for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
      losses[e] = setup.bernoulli(0.25) ? setup.uniform(0.0, 0.9) : 1e-4;
      if (setup.bernoulli(0.1)) latencies[e] *= 4;
    }
    for (const bool recovery : {true, false}) {
      playback::DeliveryModelParams params;
      params.recoveryEnabled = recovery;
      util::Rng refRng(seed);
      const double reference = test::onTimeProbabilityMCReference(
          flooding, losses, latencies, params, 200, refRng);
      util::Rng rng(seed);
      EXPECT_EQ(playback::onTimeProbabilityMC(flooding, losses, latencies,
                                              params, 200, rng, ws),
                reference)
          << "seed " << seed;
      EXPECT_EQ(rng.next(), refRng.next()) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dg
