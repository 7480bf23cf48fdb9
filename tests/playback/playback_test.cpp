#include "playback/playback.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg::playback {
namespace {

class PlaybackOnLtn : public ::testing::Test {
 protected:
  PlaybackOnLtn()
      : topology_(trace::Topology::ltn12()),
        trace_(util::seconds(10), 60,
               trace::healthyBaseline(topology_.graph(), 1e-4)),
        flow_{topology_.at("NYC"), topology_.at("SJC")} {}

  PlaybackParams params_;
  routing::SchemeParams schemeParams_;
  trace::Topology topology_;
  trace::Trace trace_;
  routing::Flow flow_;
};

TEST_F(PlaybackOnLtn, HealthyTraceIsNearlyAlwaysAvailable) {
  const PlaybackEngine engine(topology_.graph(), trace_, params_);
  for (const auto kind : routing::allSchemeKinds()) {
    const auto result = engine.run(flow_, kind, schemeParams_);
    EXPECT_LT(result.unavailability, 1e-6) << routing::schemeName(kind);
    EXPECT_EQ(result.problematicIntervals, 0u);
    EXPECT_GT(result.averageCost, 0.0);
  }
}

TEST_F(PlaybackOnLtn, CostOrderingAcrossSchemes) {
  const PlaybackEngine engine(topology_.graph(), trace_, params_);
  const auto single =
      engine.run(flow_, routing::SchemeKind::StaticSinglePath, schemeParams_);
  const auto two = engine.run(flow_, routing::SchemeKind::StaticTwoDisjoint,
                              schemeParams_);
  const auto targeted = engine.run(
      flow_, routing::SchemeKind::TargetedRedundancy, schemeParams_);
  const auto flooding = engine.run(
      flow_, routing::SchemeKind::TimeConstrainedFlooding, schemeParams_);
  EXPECT_LT(single.averageCost, two.averageCost);
  EXPECT_LE(two.averageCost, targeted.averageCost);
  EXPECT_LT(targeted.averageCost, flooding.averageCost);
  // On a healthy trace the targeted scheme never leaves its default two
  // disjoint paths, so the costs must be identical.
  EXPECT_DOUBLE_EQ(two.averageCost, targeted.averageCost);
}

TEST_F(PlaybackOnLtn, SourceBlackoutDefeatsSinglePathNotTargeted) {
  // A long source-site event covering most links with heavy loss.
  util::Rng rng(3);
  const auto event = trace::makeNodeEvent(
      topology_.graph(), flow_.source, 10, 30, /*coverage=*/1.0,
      /*activity=*/0.7, /*severity=*/0.9, 0, rng);
  trace::applyEvent(trace_, topology_.graph(), event, rng);

  const PlaybackEngine engine(topology_.graph(), trace_, params_);
  const auto single =
      engine.run(flow_, routing::SchemeKind::StaticSinglePath, schemeParams_);
  const auto twoStatic = engine.run(
      flow_, routing::SchemeKind::StaticTwoDisjoint, schemeParams_);
  const auto targeted = engine.run(
      flow_, routing::SchemeKind::TargetedRedundancy, schemeParams_);
  const auto flooding = engine.run(
      flow_, routing::SchemeKind::TimeConstrainedFlooding, schemeParams_);

  EXPECT_GT(single.unavailability, 0.01);
  EXPECT_GT(single.unavailability, twoStatic.unavailability);
  EXPECT_GT(twoStatic.unavailability, targeted.unavailability * 2);
  // Targeted tracks flooding closely through a source problem.
  EXPECT_LT(targeted.unavailability, flooding.unavailability * 3 + 1e-4);
  EXPECT_GT(single.problematicIntervals, 0u);
}

TEST_F(PlaybackOnLtn, MiddleLinkEventIsEscapedByDynamicSchemes) {
  // Find the static single path's first middle link and break it hard
  // for a long stretch.
  const PlaybackEngine probeEngine(topology_.graph(), trace_, params_);
  const auto healthy = probeEngine.run(
      flow_, routing::SchemeKind::StaticSinglePath, schemeParams_);
  ASSERT_LT(healthy.unavailability, 1e-6);

  // Reconstruct the static path to find a middle edge.
  auto scheme =
      routing::makeScheme(routing::SchemeKind::StaticSinglePath,
                          topology_.graph(), flow_, schemeParams_);
  scheme->initialize(routing::NetworkView::baseline(trace_));
  const auto& dg = scheme->select(routing::NetworkView::baseline(trace_));
  graph::EdgeId victim = graph::kInvalidEdge;
  for (const graph::EdgeId e : dg.edges()) {
    if (topology_.graph().edge(e).from != flow_.source) {
      victim = e;
      break;
    }
  }
  ASSERT_NE(victim, graph::kInvalidEdge);
  util::Rng rng(5);
  const auto event = trace::makeLinkEvent(topology_.graph(), victim, 10, 40,
                                          1.0, 0.95, 0);
  trace::applyEvent(trace_, topology_.graph(), event, rng);

  const PlaybackEngine engine(topology_.graph(), trace_, params_);
  const auto staticSingle =
      engine.run(flow_, routing::SchemeKind::StaticSinglePath, schemeParams_);
  const auto dynamicSingle = engine.run(
      flow_, routing::SchemeKind::DynamicSinglePath, schemeParams_);
  EXPECT_GT(staticSingle.unavailability, 0.01);
  // Dynamic single escapes after the one-interval staleness.
  EXPECT_LT(dynamicSingle.unavailability,
            staticSingle.unavailability * 0.2);
}

TEST_F(PlaybackOnLtn, OracleStalenessBeatsRealistic) {
  util::Rng rng(7);
  const auto event = trace::makeNodeEvent(topology_.graph(), flow_.source,
                                          5, 20, 0.8, 0.6, 0.8, 0, rng);
  trace::applyEvent(trace_, topology_.graph(), event, rng);

  PlaybackParams oracle = params_;
  oracle.viewStaleness = 0;
  const PlaybackEngine realistic(topology_.graph(), trace_, params_);
  const PlaybackEngine instant(topology_.graph(), trace_, oracle);
  const auto kind = routing::SchemeKind::DynamicTwoDisjoint;
  const auto real = realistic.run(flow_, kind, schemeParams_);
  const auto ideal = instant.run(flow_, kind, schemeParams_);
  EXPECT_LE(ideal.unavailability, real.unavailability + 1e-9);
}

TEST_F(PlaybackOnLtn, DeterministicAcrossRuns) {
  util::Rng rng(9);
  const auto event = trace::makeNodeEvent(topology_.graph(), flow_.source,
                                          5, 20, 0.8, 0.6, 0.7, 0, rng);
  trace::applyEvent(trace_, topology_.graph(), event, rng);
  const PlaybackEngine engine(topology_.graph(), trace_, params_);
  const auto a = engine.run(flow_, routing::SchemeKind::TargetedRedundancy,
                            schemeParams_);
  const auto b = engine.run(flow_, routing::SchemeKind::TargetedRedundancy,
                            schemeParams_);
  EXPECT_DOUBLE_EQ(a.unavailability, b.unavailability);
  EXPECT_EQ(a.problematicIntervals, b.problematicIntervals);
  EXPECT_DOUBLE_EQ(a.averageCost, b.averageCost);
}

TEST_F(PlaybackOnLtn, RangeAndTimelineAgree) {
  util::Rng rng(11);
  const auto event = trace::makeNodeEvent(topology_.graph(), flow_.source,
                                          5, 10, 1.0, 1.0, 1.0, 0, rng);
  trace::applyEvent(trace_, topology_.graph(), event, rng);
  const PlaybackEngine engine(topology_.graph(), trace_, params_);
  const auto kind = routing::SchemeKind::StaticSinglePath;
  const auto result = engine.runRange(flow_, kind, schemeParams_, 0, 30);
  const auto timeline = engine.missTimeline(flow_, kind, schemeParams_, 0, 30);
  ASSERT_EQ(timeline.size(), 30u);
  double totalMiss = 0;
  std::size_t problematic = 0;
  for (const double m : timeline) {
    totalMiss += m;
    if (m > params_.problematicThreshold) ++problematic;
  }
  EXPECT_NEAR(result.unavailability, totalMiss / 30.0, 1e-9);
  EXPECT_EQ(result.problematicIntervals, problematic);
}

TEST_F(PlaybackOnLtn, ProblemsListMatchesCount) {
  util::Rng rng(13);
  const auto event = trace::makeNodeEvent(topology_.graph(), flow_.source,
                                          5, 10, 1.0, 1.0, 1.0, 0, rng);
  trace::applyEvent(trace_, topology_.graph(), event, rng);
  const PlaybackEngine engine(topology_.graph(), trace_, params_);
  const auto result = engine.run(flow_, routing::SchemeKind::StaticSinglePath,
                                 schemeParams_);
  EXPECT_EQ(result.problems.size(), result.problematicIntervals);
  for (const auto& problem : result.problems) {
    EXPECT_GE(problem.interval, 5u);
    EXPECT_LT(problem.interval, 16u);  // event span + one stale interval
    EXPECT_GT(problem.missProbability, params_.problematicThreshold);
  }
}

TEST_F(PlaybackOnLtn, BadRangesThrow) {
  const PlaybackEngine engine(topology_.graph(), trace_, params_);
  EXPECT_THROW(engine.runRange(flow_, routing::SchemeKind::StaticSinglePath,
                               schemeParams_, 10, 5),
               std::out_of_range);
  EXPECT_THROW(engine.runRange(flow_, routing::SchemeKind::StaticSinglePath,
                               schemeParams_, 0, 1000),
               std::out_of_range);
}

TEST(PlaybackEngine, RejectsMismatchedTrace) {
  test::Line line;
  const auto topology = trace::Topology::ltn12();
  const auto trace = test::healthyTrace(line.g, 5);
  EXPECT_THROW(PlaybackEngine(topology.graph(), trace, PlaybackParams{}),
               std::invalid_argument);
}

// A sample count below 1 used to be accepted: 0 scored every lossy
// interval as NaN (1 - 0/0) and a negative count as a certain miss.
TEST(PlaybackEngine, RejectsSampleCountBelowOne) {
  const auto topology = trace::Topology::ltn12();
  const auto trace = test::healthyTrace(topology.graph(), 5);
  for (const int samples : {0, -1, -1000}) {
    PlaybackParams params;
    params.mcSamples = samples;
    EXPECT_THROW(PlaybackEngine(topology.graph(), trace, params),
                 std::invalid_argument)
        << "samples " << samples;
  }
  PlaybackParams one;
  one.mcSamples = 1;
  EXPECT_NO_THROW(PlaybackEngine(topology.graph(), trace, one));
}

}  // namespace
}  // namespace dg::playback
