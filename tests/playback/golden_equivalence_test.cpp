// Golden equivalence: the optimized playback hot path (condition-timeline
// cursor, reusable delivery workspaces, decision/evaluation memos) must
// produce results and telemetry *byte-identical* to the legacy path and
// to the frozen reference evaluators, at any thread count.
#include <gtest/gtest.h>

#include <vector>

#include "playback/delivery_model.hpp"
#include "playback/experiment.hpp"
#include "playback/playback.hpp"
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

TEST_F(GoldenEquivalence, DecisionMemoOnOffByteIdentical) {
  playback::PlaybackParams on = params_;
  playback::PlaybackParams off = params_;
  on.decisionMemo = true;
  off.decisionMemo = false;
  const auto [rOn, tOn] = runAll(on);
  const auto [rOff, tOff] = runAll(off);
  ASSERT_EQ(rOn.size(), rOff.size());
  for (std::size_t i = 0; i < rOn.size(); ++i) {
    expectResultsIdentical(rOn[i], rOff[i]);
  }
  EXPECT_EQ(tOn, tOff);
}

TEST_F(GoldenEquivalence, CursorVsLegacyByteIdentical) {
  playback::PlaybackParams legacy = params_;
  legacy.decisionMemo = false;
  legacy.conditionCursor = false;  // reference evaluators, owned vectors
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
  legacyParams.decisionMemo = false;
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
  legacy.decisionMemo = false;
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
      const double reference = playback::onTimeProbabilityMCReference(
          *dg_, losses, latencies, params, 300, b);
      EXPECT_EQ(optimized, reference) << "seed " << seed;
      EXPECT_EQ(playback::missProbabilityNearLossless(*dg_, losses,
                                                      latencies, params,
                                                      ws),
                playback::missProbabilityNearLosslessReference(
                    *dg_, losses, latencies, params))
          << "seed " << seed;
    }
  }
}

// Every batched Monte-Carlo kernel (fused scalar, portable SoA block,
// AVX2 block when the CPU has it) must agree with the frozen reference
// draw for draw: same verdicts, same final RNG state. Odd sample counts
// straddle the block size so partial tail blocks are exercised, and the
// graph set spans small member counts (scalar-dispatch territory), a
// 64-member flooding graph (both key words), and the AVX2 tail path.
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

  std::vector<playback::detail::McKernel> kernels = {
      playback::detail::McKernel::kFusedScalar,
      playback::detail::McKernel::kBlockScalar};
  if (playback::detail::mcKernelSupported(
          playback::detail::McKernel::kBlockAvx2)) {
    kernels.push_back(playback::detail::McKernel::kBlockAvx2);
  }

  const playback::DeliveryModelParams params;
  playback::DeliveryWorkspace ws;
  // 1 and 31 stay inside one 32-sample block, 33/63/65 cross one
  // boundary at different offsets, 257 crosses eight.
  const int sampleCounts[] = {1, 31, 33, 63, 65, 257};
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
        const double reference = playback::onTimeProbabilityMCReference(
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
      const double reference = playback::onTimeProbabilityMCReference(
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
