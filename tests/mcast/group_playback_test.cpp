// Group playback engine semantics, anchored by the subsystem's central
// contract: a single-receiver group is bit-identical to the unicast
// playback of the scheme's unicastEquivalent(), for every scheme pair,
// on a trace that exercises both the deterministic and the Monte-Carlo
// evaluation paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mcast/playback.hpp"
#include "playback/playback.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg::mcast {
namespace {

/// A 6-hour ltn12 trace dense enough in loss/latency events that every
/// scheme hits Monte-Carlo intervals, graph switches, and clean spans.
trace::SyntheticTrace lossyTrace(const graph::Graph& overlay) {
  trace::GeneratorParams params;
  params.seed = 11;
  params.duration = util::hours(6);
  params.nodeEventsPerDay = 40.0;
  params.linkEventsPerDay = 40.0;
  return trace::generateSyntheticTrace(overlay, params);
}

double mcastMcIntervals(const telemetry::Telemetry& telemetry) {
  double total = 0.0;
  for (const auto& [key, value] : telemetry.metrics.samples()) {
    if (key.find("dg_mcast_mc_intervals_total") != std::string::npos)
      total += value;
  }
  return total;
}

TEST(GroupPlayback, SingleReceiverGroupBitIdenticalToUnicastForEveryScheme) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());

  playback::PlaybackParams unicastParams;
  unicastParams.mcSamples = 200;
  const playback::PlaybackEngine unicastEngine(topology.graph(), synth.trace,
                                               unicastParams);

  GroupPlaybackParams groupParams;
  groupParams.base = unicastParams;
  const GroupPlaybackEngine groupEngine(topology.graph(), synth.trace,
                                        groupParams);

  const routing::Flow flow{topology.at("NYC"), topology.at("SJC")};
  Group group;
  group.source = flow.source;
  group.receivers = {flow.destination};

  bool sawMonteCarlo = false;
  for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
    const routing::SchemeKind unicastKind = unicastEquivalent(kind);
    const playback::FlowSchemeResult unicast =
        unicastEngine.run(flow, unicastKind, routing::SchemeParams{});
    telemetry::Telemetry telemetry;
    const GroupSchemeResult grouped = groupEngine.run(
        group, kind, routing::SchemeParams{}, &telemetry);
    if (mcastMcIntervals(telemetry) > 0) sawMonteCarlo = true;

    // Bitwise equality, not tolerance: the group engine must reduce to
    // the unicast engine exactly when the receiver set is a singleton.
    EXPECT_EQ(grouped.unavailabilityAll, unicast.unavailability)
        << groupSchemeName(kind);
    EXPECT_EQ(grouped.unavailabilityK, unicast.unavailability)
        << groupSchemeName(kind);
    EXPECT_EQ(grouped.unavailableAllSeconds, unicast.unavailableSeconds)
        << groupSchemeName(kind);
    EXPECT_EQ(grouped.problematicIntervals, unicast.problematicIntervals)
        << groupSchemeName(kind);
    EXPECT_EQ(grouped.averageCost, unicast.averageCost)
        << groupSchemeName(kind);
    ASSERT_EQ(grouped.receivers.size(), 1u);
    EXPECT_EQ(grouped.receivers[0].unavailability, unicast.unavailability)
        << groupSchemeName(kind);
    EXPECT_EQ(grouped.receivers[0].averageLatencyUs, unicast.averageLatencyUs)
        << groupSchemeName(kind);
    ASSERT_EQ(grouped.problems.size(), unicast.problems.size())
        << groupSchemeName(kind);
    for (std::size_t i = 0; i < grouped.problems.size(); ++i) {
      EXPECT_EQ(grouped.problems[i].interval, unicast.problems[i].interval);
      EXPECT_EQ(grouped.problems[i].missProbability,
                unicast.problems[i].missProbability);
    }
  }
  EXPECT_TRUE(sawMonteCarlo)
      << "trace never exercised the Monte-Carlo path; the bit-identity "
         "claim was only tested on deterministic intervals";
}

TEST(GroupPlayback, MultiReceiverInvariantsHold) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());

  GroupPlaybackParams params;
  params.base.mcSamples = 200;
  const GroupPlaybackEngine engine(topology.graph(), synth.trace, params);

  Group group;
  group.source = topology.at("NYC");
  group.receivers = {topology.at("SJC"), topology.at("LAX"),
                     topology.at("DEN")};

  for (const GroupSchemeKind kind :
       {GroupSchemeKind::kDynamicMesh, GroupSchemeKind::kStaticTrees}) {
    const GroupSchemeResult result =
        engine.run(group, kind, routing::SchemeParams{});
    ASSERT_EQ(result.receivers.size(), 3u);
    // Delivered-to-all is at least as hard as any single receiver.
    for (const GroupReceiverResult& receiver : result.receivers) {
      EXPECT_GE(result.unavailabilityAll, receiver.unavailability - 1e-12)
          << groupSchemeName(kind);
    }
    // deliveredK defaults to "all receivers".
    EXPECT_EQ(result.unavailabilityK, result.unavailabilityAll);
    EXPECT_GT(result.averageCost, 0.0);
  }
}

TEST(GroupPlayback, DeliveredKRelaxesDeliveredAll) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());

  GroupPlaybackParams all;
  all.base.mcSamples = 200;
  GroupPlaybackParams kOne = all;
  kOne.deliveredK = 1;

  const GroupPlaybackEngine engineAll(topology.graph(), synth.trace, all);
  const GroupPlaybackEngine engineK(topology.graph(), synth.trace, kOne);

  Group group;
  group.source = topology.at("NYC");
  group.receivers = {topology.at("SJC"), topology.at("LAX")};

  const GroupSchemeResult rAll = engineAll.run(
      group, GroupSchemeKind::kStaticMesh, routing::SchemeParams{});
  const GroupSchemeResult rK = engineK.run(
      group, GroupSchemeKind::kStaticMesh, routing::SchemeParams{});
  // Reaching at least one receiver is never harder than reaching all;
  // the all-receivers line itself is unaffected by k.
  EXPECT_LE(rK.unavailabilityK, rK.unavailabilityAll + 1e-12);
  EXPECT_EQ(rK.unavailabilityAll, rAll.unavailabilityAll);
}

TEST(GroupPlayback, PerReceiverDeadlinesAreHonored) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());

  GroupPlaybackParams params;
  params.base.mcSamples = 100;
  const GroupPlaybackEngine engine(topology.graph(), synth.trace, params);

  Group group;
  group.source = topology.at("NYC");
  group.receivers = {topology.at("SJC"), topology.at("FRA")};
  // An absurdly tight deadline for FRA makes that receiver miss always;
  // SJC keeps the default and stays mostly served.
  group.deadlines = {util::milliseconds(65), util::microseconds(1)};

  const GroupSchemeResult result = engine.run(
      group, GroupSchemeKind::kStaticMesh, routing::SchemeParams{});
  ASSERT_EQ(result.receivers.size(), 2u);
  EXPECT_EQ(result.receivers[1].unavailability, 1.0);
  EXPECT_LT(result.receivers[0].unavailability, 0.5);
  EXPECT_EQ(result.unavailabilityAll, 1.0);
}

TEST(GroupPlayback, ChunkPartialsFoldToBlockedRunExactly) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());
  const std::size_t intervals = synth.trace.intervalCount();
  const std::size_t block = 100;

  GroupPlaybackParams params;
  params.base.mcSamples = 200;
  params.base.accumBlockIntervals = block;
  const GroupPlaybackEngine engine(topology.graph(), synth.trace, params);

  Group group;
  group.source = topology.at("NYC");
  group.receivers = {topology.at("SJC"), topology.at("LAX")};

  for (const GroupSchemeKind kind :
       {GroupSchemeKind::kDynamicTrees, GroupSchemeKind::kTargetedReceivers,
        GroupSchemeKind::kGroupFlooding}) {
    const GroupSchemeResult whole =
        engine.run(group, kind, routing::SchemeParams{});

    GroupRunPartial folded;
    for (std::size_t first = 0; first < intervals; first += block) {
      const std::size_t last = std::min(first + block, intervals);
      folded.merge(engine.runChunkPartial(group, kind,
                                          routing::SchemeParams{}, first,
                                          last, nullptr, nullptr));
    }
    const GroupSchemeResult chunked =
        engine.finalizePartial(group, kind, std::move(folded));

    EXPECT_EQ(chunked.unavailabilityAll, whole.unavailabilityAll)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.unavailabilityK, whole.unavailabilityK)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.unavailableAllSeconds, whole.unavailableAllSeconds)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.averageCost, whole.averageCost)
        << groupSchemeName(kind);
    ASSERT_EQ(chunked.receivers.size(), whole.receivers.size());
    for (std::size_t r = 0; r < whole.receivers.size(); ++r) {
      EXPECT_EQ(chunked.receivers[r].unavailability,
                whole.receivers[r].unavailability)
          << groupSchemeName(kind) << " receiver " << r;
      EXPECT_EQ(chunked.receivers[r].averageLatencyUs,
                whole.receivers[r].averageLatencyUs)
          << groupSchemeName(kind) << " receiver " << r;
    }
  }
}

TEST(GroupPlayback, ReceiverTimelinesFoldToRunRange) {
  // Each receiver's unicast context is decided into a timeline -- once
  // over the whole trace, and once per chunk window, each window started
  // from its bounded replay -- and each chunk scores its three receivers
  // from one of them. Folded in order, the partials must reproduce
  // runRange over the whole trace bit for bit.
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());
  const std::size_t intervals = synth.trace.intervalCount();
  const std::size_t block = 90;

  GroupPlaybackParams params;
  params.base.mcSamples = 200;
  params.base.accumBlockIntervals = block;
  const GroupPlaybackEngine engine(topology.graph(), synth.trace, params);

  Group group;
  group.source = topology.at("NYC");
  group.receivers = {topology.at("SJC"), topology.at("LAX"),
                     topology.at("SEA")};
  group.deadlines = {util::milliseconds(65), util::milliseconds(80),
                     util::milliseconds(55)};
  const routing::SchemeParams schemeParams;
  const playback::IntervalWindow all{0, intervals};

  for (const GroupSchemeKind kind :
       {GroupSchemeKind::kDynamicTrees, GroupSchemeKind::kDynamicMesh,
        GroupSchemeKind::kTargetedReceivers}) {
    std::vector<playback::DecisionTimeline> timelines;
    for (std::size_t i = 0; i < group.receivers.size(); ++i) {
      timelines.push_back(engine.replayTimeline(
          unicastEquivalent(kind), receiverFlow(group, i),
          receiverSchemeParams(group, i, schemeParams), nullptr,
          {&all, 1}));
    }
    GroupRunPartial folded;
    for (std::size_t c = 0; c * block < intervals; ++c) {
      const std::size_t first = c * block;
      const std::size_t last = std::min(first + block, intervals);
      const playback::IntervalWindow window{first, last};
      std::vector<playback::DecisionTimeline> chunkTimelines;
      std::vector<const playback::DecisionTimeline*> receivers;
      for (std::size_t i = 0; i < group.receivers.size(); ++i) {
        if (c % 2 == 0) {
          receivers.push_back(&timelines[i]);
        } else {
          chunkTimelines.push_back(engine.replayTimeline(
              unicastEquivalent(kind), receiverFlow(group, i),
              receiverSchemeParams(group, i, schemeParams), nullptr,
              {&window, 1}));
        }
      }
      for (const playback::DecisionTimeline& t : chunkTimelines)
        receivers.push_back(&t);
      folded.merge(engine.runChunkPartial(group, kind, first, last,
                                          {receivers, nullptr}, nullptr));
    }
    const GroupSchemeResult chunked =
        engine.finalizePartial(group, kind, std::move(folded));
    const GroupSchemeResult whole =
        engine.runRange(group, kind, schemeParams, 0, intervals);

    EXPECT_EQ(chunked.unavailabilityAll, whole.unavailabilityAll)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.unavailabilityK, whole.unavailabilityK)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.unavailableAllSeconds, whole.unavailableAllSeconds)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.problematicIntervals, whole.problematicIntervals)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.averageCost, whole.averageCost) << groupSchemeName(kind);
    ASSERT_EQ(chunked.problems.size(), whole.problems.size());
    for (std::size_t p = 0; p < whole.problems.size(); ++p) {
      EXPECT_EQ(chunked.problems[p].interval, whole.problems[p].interval);
      EXPECT_EQ(chunked.problems[p].missProbability,
                whole.problems[p].missProbability);
    }
    ASSERT_EQ(chunked.receivers.size(), whole.receivers.size());
    for (std::size_t r = 0; r < whole.receivers.size(); ++r) {
      EXPECT_EQ(chunked.receivers[r].unavailability,
                whole.receivers[r].unavailability)
          << groupSchemeName(kind) << " receiver " << r;
      EXPECT_EQ(chunked.receivers[r].unavailableSeconds,
                whole.receivers[r].unavailableSeconds)
          << groupSchemeName(kind) << " receiver " << r;
      EXPECT_EQ(chunked.receivers[r].problematicIntervals,
                whole.receivers[r].problematicIntervals)
          << groupSchemeName(kind) << " receiver " << r;
      EXPECT_EQ(chunked.receivers[r].averageLatencyUs,
                whole.receivers[r].averageLatencyUs)
          << groupSchemeName(kind) << " receiver " << r;
    }
  }
}

}  // namespace
}  // namespace dg::mcast
