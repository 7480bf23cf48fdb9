#include "playback/delivery_model.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mc_kernel_pins.hpp"
#include "reference_evaluators.hpp"
#include "routing/targeted_graphs.hpp"
#include "test_support.hpp"
#include "trace/topology.hpp"
#include "util/rng.hpp"

namespace dg::playback {
namespace {

DeliveryModelParams defaults() { return DeliveryModelParams{}; }

TEST(SampleHopLatency, LosslessIsDeterministic) {
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampleHopLatency(0.0, 1000, defaults(), rng), 1000);
  }
}

TEST(SampleHopLatency, TotalLossWithRecoveryIsNever) {
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampleHopLatency(1.0, 1000, defaults(), rng), util::kNever);
  }
}

TEST(SampleHopLatency, OutcomeFrequenciesMatchModel) {
  util::Rng rng(42);
  const double p = 0.3;
  const util::SimTime lat = util::milliseconds(10);
  int onTime = 0, recovered = 0, lost = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const auto t = sampleHopLatency(p, lat, defaults(), rng);
    if (t == lat) {
      ++onTime;
    } else if (t == 3 * lat + defaults().packetInterval) {
      ++recovered;
    } else {
      ASSERT_EQ(t, util::kNever);
      ++lost;
    }
  }
  EXPECT_NEAR(onTime / static_cast<double>(n), 1 - p, 0.01);
  EXPECT_NEAR(recovered / static_cast<double>(n), p * (1 - p), 0.01);
  EXPECT_NEAR(lost / static_cast<double>(n), p * p, 0.005);
}

TEST(SampleHopLatency, NoRecoveryLosesAtRateP) {
  DeliveryModelParams params;
  params.recoveryEnabled = false;
  util::Rng rng(7);
  const double p = 0.25;
  int lost = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (sampleHopLatency(p, 1000, params, rng) == util::kNever) ++lost;
  }
  EXPECT_NEAR(lost / static_cast<double>(n), p, 0.01);
}

TEST(NearLossless, ThresholdRespected) {
  test::Line line;
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  std::vector<double> losses(line.g.edgeCount(), 1e-4);
  EXPECT_TRUE(nearLossless(dg, losses, 1e-3));
  losses[line.md] = 0.01;
  EXPECT_FALSE(nearLossless(dg, losses, 1e-3));
  // Loss on a non-member edge does not matter.
  losses[line.md] = 1e-4;
  losses[line.dm] = 0.9;
  EXPECT_TRUE(nearLossless(dg, losses, 1e-3));
}

TEST(MissNearLossless, DeadlineDecides) {
  test::Line line;  // 20 ms end-to-end
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  const std::vector<double> losses(line.g.edgeCount(), 0.0);
  const auto latencies = line.g.baseLatencies();
  DeliveryModelParams params;
  params.deadline = util::milliseconds(25);
  EXPECT_NEAR(missProbabilityNearLossless(dg, losses, latencies, params),
              0.0, 1e-9);
  params.deadline = util::milliseconds(15);
  EXPECT_DOUBLE_EQ(
      missProbabilityNearLossless(dg, losses, latencies, params), 1.0);
}

TEST(MissNearLossless, ResidualLossIsTiny) {
  test::Line line;
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  const std::vector<double> losses(line.g.edgeCount(), 1e-4);
  const auto latencies = line.g.baseLatencies();
  const double miss =
      missProbabilityNearLossless(dg, losses, latencies, defaults());
  EXPECT_GT(miss, 0.0);
  EXPECT_LT(miss, 1e-6);
}

TEST(MonteCarloDelivery, LosslessAlwaysOnTime) {
  test::Line line;
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  const std::vector<double> losses(line.g.edgeCount(), 0.0);
  const auto latencies = line.g.baseLatencies();
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(onTimeProbabilityMC(dg, losses, latencies, defaults(),
                                       500, rng),
                   1.0);
}

TEST(MonteCarloDelivery, SinglePathMatchesClosedForm) {
  // One hop with loss p and ample deadline: on-time prob = 1 - p^2.
  graph::Graph g;
  const auto s = g.addNode();
  const auto d = g.addNode();
  const auto e = g.addEdge(s, d, util::milliseconds(10));
  const auto dg = graph::singlePathGraph(g, s, d, {e});
  const std::vector<double> losses{0.3};
  const std::vector<util::SimTime> latencies{util::milliseconds(10)};
  util::Rng rng(5);
  const double onTime =
      onTimeProbabilityMC(dg, losses, latencies, defaults(), 200'000, rng);
  EXPECT_NEAR(onTime, 1.0 - 0.09, 0.005);
}

TEST(MonteCarloDelivery, TightDeadlineDisablesRecovery) {
  // One 10 ms hop, deadline 15 ms: recovery (40 ms) cannot help, so
  // on-time prob = 1 - p.
  graph::Graph g;
  const auto s = g.addNode();
  const auto d = g.addNode();
  const auto e = g.addEdge(s, d, util::milliseconds(10));
  const auto dg = graph::singlePathGraph(g, s, d, {e});
  DeliveryModelParams params;
  params.deadline = util::milliseconds(15);
  util::Rng rng(5);
  const std::vector<double> losses{0.3};
  const std::vector<util::SimTime> latencies{util::milliseconds(10)};
  const double onTime =
      onTimeProbabilityMC(dg, losses, latencies, params, 100'000, rng);
  EXPECT_NEAR(onTime, 0.7, 0.01);
}

TEST(MonteCarloDelivery, TwoDisjointPathsMaskSinglePathLoss) {
  test::Diamond d;
  graph::DisseminationGraph dg(d.g, d.s, d.d);
  dg.addPath({d.sa, d.ad});
  dg.addPath({d.sb, d.bd});
  std::vector<double> losses(d.g.edgeCount(), 0.0);
  losses[d.sa] = 1.0;  // first path dead at the first hop
  util::Rng rng(5);
  const double onTime = onTimeProbabilityMC(dg, losses, d.g.baseLatencies(),
                                            defaults(), 2'000, rng);
  EXPECT_DOUBLE_EQ(onTime, 1.0);  // second path delivers deterministically
}

TEST(MonteCarloDelivery, BothPathsLossyComposes) {
  // Both disjoint paths have a single lossy hop (p=0.5, recovery off):
  // miss = 0.25.
  test::Diamond d;
  graph::DisseminationGraph dg(d.g, d.s, d.d);
  dg.addPath({d.sa, d.ad});
  dg.addPath({d.sb, d.bd});
  std::vector<double> losses(d.g.edgeCount(), 0.0);
  losses[d.sa] = 0.5;
  losses[d.sb] = 0.5;
  DeliveryModelParams params;
  params.recoveryEnabled = false;
  util::Rng rng(11);
  const double onTime = onTimeProbabilityMC(dg, losses, d.g.baseLatencies(),
                                            params, 100'000, rng);
  EXPECT_NEAR(onTime, 0.75, 0.01);
}

TEST(MonteCarloDelivery, ZeroSamplesIsZero) {
  test::Line line;
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(
      onTimeProbabilityMC(dg, std::vector<double>(4, 0.0),
                          line.g.baseLatencies(), defaults(), 0, rng),
      0.0);
}

// Count-then-decide work on hand-checked cases: a source -> destination
// diamond with path A (s-a-d, 10 + 10 ms) and path B (s-b-d, 15 + 15 ms),
// 1000 samples, loss 0.5 on each edge of A, none on B. A recovered hop
// takes 3 * 10 + 10 = 40 ms. The eight patterns that slow A down are
// decided in ascending key order (sa's code in the low bits):
//  - A alone, 45 ms deadline: every slowed pattern is late. (1,0) and
//    (0,1) need Dijkstra runs; each other pattern lies above one of them
//    and is late too: 2 runs, 6 inferred.
//  - A alone, 55 ms: (1,0) and (0,1) arrive at 50 ms. Runs for (1,0),
//    (2,0), (0,1), (1,1) and (0,2); (2,1), (1,2) and (2,2) lie above a
//    late one: 5 runs, 3 inferred.
//  - A and B, 45 ms: (1,0) reaches d over B, which no pattern slows down,
//    so its widened path bound covers every other pattern: 1 run, 7
//    inferred.
// Every kernel pin finds the same counts, and every result matches the
// frozen reference.
TEST(MonteCarloInference, DecidesPatternsFromTheirNeighboursVerdicts) {
  graph::Graph g;
  const graph::NodeId s = g.addNode();
  const graph::NodeId a = g.addNode();
  const graph::NodeId b = g.addNode();
  const graph::NodeId d = g.addNode();
  const graph::EdgeId sa = g.addEdge(s, a, util::milliseconds(10));
  const graph::EdgeId ad = g.addEdge(a, d, util::milliseconds(10));
  const graph::EdgeId sb = g.addEdge(s, b, util::milliseconds(15));
  const graph::EdgeId bd = g.addEdge(b, d, util::milliseconds(15));
  const graph::Path pathA{sa, ad};
  const graph::Path pathB{sb, bd};
  const graph::DisseminationGraph onlyA =
      graph::singlePathGraph(g, s, d, pathA);
  const std::vector<graph::Path> both{pathA, pathB};
  const graph::DisseminationGraph diamond =
      graph::multiPathGraph(g, s, d, both);
  std::vector<double> losses(g.edgeCount(), 0.0);
  losses[sa] = 0.5;
  losses[ad] = 0.5;
  const std::vector<util::SimTime> latencies = g.baseLatencies();

  struct Case {
    const graph::DisseminationGraph* dg;
    int deadlineMs;
    std::uint64_t runs;
    std::uint64_t inferred;
  };
  const Case cases[] = {
      {&onlyA, 45, 2, 6}, {&onlyA, 55, 5, 3}, {&diamond, 45, 1, 7}};
  std::string missing;
  const std::vector<detail::McKernel> kernels =
      test::runnableMcKernels(missing);
  for (const Case& c : cases) {
    DeliveryModelParams params;
    params.deadline = util::milliseconds(c.deadlineMs);
    util::Rng refRng(3);
    const double reference = test::onTimeProbabilityMCReference(
        *c.dg, losses, latencies, params, 1000, refRng);
    for (const detail::McKernel kernel : kernels) {
      detail::setMcKernelForTest(kernel);
      DeliveryWorkspace ws;
      util::Rng rng(3);
      const std::string where =
          "deadline " + std::to_string(c.deadlineMs) + " members " +
          std::to_string(c.dg->edges().size()) + " kernel " +
          std::to_string(static_cast<int>(kernel));
      EXPECT_EQ(onTimeProbabilityMC(*c.dg, losses, latencies, params, 1000,
                                    rng, ws),
                reference)
          << where;
      EXPECT_EQ(ws.work.dijkstraRuns, c.runs) << where;
      EXPECT_EQ(ws.work.inferredVerdicts, c.inferred) << where;
    }
    detail::setMcKernelForTest(detail::McKernel::kAuto);
  }
  if (!missing.empty()) GTEST_SKIP() << "kernels not run here: " << missing;
}

// The engine reads the transmission cost off the workspace's
// earliest-arrival tree; it must equal DisseminationGraph::cost under
// every latency vector, including unusable edges and latency ties.
TEST(GroupTransmissionCost, MatchesDisseminationGraphCost) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const graph::DisseminationGraph flooding = graph::floodingGraph(g, 0, 7);
  const auto targeted = routing::buildTargetedGraphs(
      g, routing::Flow{0, 7}, g.baseLatencies(), util::milliseconds(65));
  DeliveryWorkspace ws;
  const std::vector<graph::NodeId> receivers{7};
  std::vector<util::SimTime> arrival(1);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    util::Rng rng(seed);
    std::vector<util::SimTime> latencies = g.baseLatencies();
    for (util::SimTime& l : latencies) {
      if (rng.bernoulli(0.1)) l = util::kNever;
      else if (rng.bernoulli(0.3)) l = util::milliseconds(5);  // ties
      else if (rng.bernoulli(0.2)) l *= 3;
    }
    for (const graph::DisseminationGraph* dg :
         {&flooding, &targeted.sourceProblem, &targeted.robust}) {
      groupCleanArrivals(*dg, latencies, receivers, ws, arrival);
      EXPECT_EQ(groupTransmissionCost(*dg, latencies, ws),
                dg->cost(latencies))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dg::playback
