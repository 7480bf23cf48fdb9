#include "playback/delivery_model.hpp"

#include <gtest/gtest.h>

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
