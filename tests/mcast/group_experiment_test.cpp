// Group experiment runners: bit-identical results and byte-identical
// telemetry exports at any thread count, packed == in-memory blocked
// run, and per-group window semantics.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "mcast/experiment.hpp"
#include "playback/playback.hpp"
#include "store/writer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg::mcast {
namespace {

trace::Trace experimentTrace(const graph::Graph& overlay) {
  trace::GeneratorParams params;
  params.seed = 11;
  params.duration = util::hours(4);
  params.nodeEventsPerDay = 40.0;
  params.linkEventsPerDay = 40.0;
  return trace::generateSyntheticTrace(overlay, params).trace;
}

GroupExperimentConfig baseConfig(const trace::Topology& topology) {
  GroupExperimentConfig config;
  Group a;
  a.source = topology.at("NYC");
  a.receivers = {topology.at("SJC"), topology.at("LAX")};
  Group b;
  b.source = topology.at("FRA");
  b.receivers = {topology.at("SEA"), topology.at("ATL"), topology.at("CHI")};
  config.groups = {a, b};
  config.schemes = {GroupSchemeKind::kStaticTrees,
                    GroupSchemeKind::kDynamicMesh,
                    GroupSchemeKind::kTargetedReceivers};
  config.playback.base.mcSamples = 100;
  return config;
}

void expectResultsIdentical(const GroupExperimentResult& a,
                            const GroupExperimentResult& b) {
  ASSERT_EQ(a.perGroup.size(), b.perGroup.size());
  for (std::size_t i = 0; i < a.perGroup.size(); ++i) {
    const GroupSchemeResult& x = a.perGroup[i];
    const GroupSchemeResult& y = b.perGroup[i];
    EXPECT_EQ(x.unavailabilityAll, y.unavailabilityAll) << "job " << i;
    EXPECT_EQ(x.unavailabilityK, y.unavailabilityK) << "job " << i;
    EXPECT_EQ(x.unavailableAllSeconds, y.unavailableAllSeconds) << "job " << i;
    EXPECT_EQ(x.problematicIntervals, y.problematicIntervals) << "job " << i;
    EXPECT_EQ(x.averageCost, y.averageCost) << "job " << i;
    ASSERT_EQ(x.receivers.size(), y.receivers.size());
    for (std::size_t r = 0; r < x.receivers.size(); ++r) {
      EXPECT_EQ(x.receivers[r].unavailability, y.receivers[r].unavailability);
      EXPECT_EQ(x.receivers[r].averageLatencyUs,
                y.receivers[r].averageLatencyUs);
    }
  }
  ASSERT_EQ(a.summary.size(), b.summary.size());
  for (std::size_t s = 0; s < a.summary.size(); ++s) {
    EXPECT_EQ(a.summary[s].unavailabilityAll, b.summary[s].unavailabilityAll);
    EXPECT_EQ(a.summary[s].averageCost, b.summary[s].averageCost);
    EXPECT_EQ(a.summary[s].worstReceiverUnavailability,
              b.summary[s].worstReceiverUnavailability);
  }
}

TEST(GroupExperiment, ThreadCountDoesNotChangeResultsOrTelemetry) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());
  GroupExperimentConfig config = baseConfig(topology);

  config.threads = 1;
  telemetry::Telemetry t1;
  const GroupExperimentResult r1 =
      runGroupExperiment(topology.graph(), tr, config, &t1);

  config.threads = 4;
  telemetry::Telemetry t4;
  const GroupExperimentResult r4 =
      runGroupExperiment(topology.graph(), tr, config, &t4);

  expectResultsIdentical(r1, r4);
  EXPECT_EQ(telemetry::toPrometheus(t1.metrics),
            telemetry::toPrometheus(t4.metrics));
  EXPECT_GT(t1.metrics.counterValue("dg_mcast_jobs_total", {}), 0.0);
}

TEST(GroupExperiment, PackedRunnerMatchesInMemoryBlockedRun) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "mcast_experiment.dgtrace")
          .string();
  store::WriterOptions options;
  options.chunkIntervals = 64;
  store::packTrace(tr, path, options);

  GroupExperimentConfig config = baseConfig(topology);
  config.threads = 4;
  telemetry::Telemetry packedT1;
  const GroupExperimentResult packed =
      runPackedGroupExperiment(topology.graph(), path, config, &packedT1);

  // The packed runner's contract: bit-identical to an in-memory run with
  // chunk-aligned accumulation blocks and cursor-fed decisions.
  GroupExperimentConfig blocked = config;
  blocked.playback.base.conditionCursor = true;
  blocked.playback.base.accumBlockIntervals = 64;
  const GroupExperimentResult inMemory =
      runGroupExperiment(topology.graph(), tr, blocked);
  expectResultsIdentical(packed, inMemory);

  // And thread invariance with byte-identical telemetry on the packed
  // path itself.
  config.threads = 1;
  telemetry::Telemetry packedSeq;
  const GroupExperimentResult packedAt1 =
      runPackedGroupExperiment(topology.graph(), path, config, &packedSeq);
  expectResultsIdentical(packed, packedAt1);
  EXPECT_EQ(telemetry::toPrometheus(packedSeq.metrics),
            telemetry::toPrometheus(packedT1.metrics));
}

// The group runners report the sweep's stats as the unicast runners do:
// stage timings only when asked for, and the same decision replay and
// Monte-Carlo verdict work as the unicast runner on the same flows (a
// flow is scored as the one-receiver group).
TEST(GroupExperiment, ReportsSweepStatsLikeTheUnicastRunner) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "mcast_stats.dgtrace")
          .string();
  store::WriterOptions options;
  options.chunkIntervals = 64;
  store::packTrace(tr, path, options);

  GroupExperimentConfig config = baseConfig(topology);
  config.threads = 2;
  const GroupExperimentResult untimed =
      runPackedGroupExperiment(topology.graph(), path, config);
  EXPECT_EQ(untimed.stages.mcNs, 0u);
  EXPECT_EQ(untimed.stages.memoNs, 0u);
  EXPECT_GT(untimed.memoStats.lookups(), 0u);
  EXPECT_GT(untimed.replay.decisions, 0u);
  EXPECT_GT(untimed.delivery.dijkstraRuns, 0u);

  config.playback.base.collectStageTimings = true;
  const GroupExperimentResult timed =
      runPackedGroupExperiment(topology.graph(), path, config);
  expectResultsIdentical(untimed, timed);
  EXPECT_GT(timed.stages.decodeNs, 0u);
  EXPECT_GT(timed.stages.mcNs, 0u);
  EXPECT_GT(timed.stages.evalNs, 0u);
  EXPECT_GT(timed.stages.memoNs, 0u);
  EXPECT_GT(timed.stages.mergeNs, 0u);
  EXPECT_EQ(timed.delivery, untimed.delivery);

  playback::ExperimentConfig unicast;
  unicast.flows = {routing::Flow{topology.at("NYC"), topology.at("SJC")},
                   routing::Flow{topology.at("FRA"), topology.at("SEA")}};
  unicast.playback = config.playback.base;
  unicast.threads = 2;
  GroupExperimentConfig flowGroups = config;
  flowGroups.groups.clear();
  for (const routing::Flow flow : unicast.flows)
    flowGroups.groups.push_back(oneReceiverGroup(flow));
  flowGroups.schemes.clear();
  for (const routing::SchemeKind kind : unicast.schemes)
    flowGroups.schemes.push_back(groupEquivalent(kind));
  const playback::ExperimentResult flows =
      playback::runPackedExperiment(topology.graph(), path, unicast);
  const GroupExperimentResult groups =
      runPackedGroupExperiment(topology.graph(), path, flowGroups);
  EXPECT_GT(flows.delivery.dijkstraRuns, 0u);
  EXPECT_EQ(groups.delivery, flows.delivery);
  EXPECT_GT(flows.replay.decisions, 0u);
  EXPECT_EQ(groups.replay.decisions, flows.replay.decisions);
  EXPECT_EQ(groups.replay.intervals, flows.replay.intervals);
  EXPECT_EQ(groups.memoStats.lookups(), flows.memoStats.lookups());
}

TEST(GroupExperiment, FullCoverWindowMatchesUnwindowedRun) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());

  GroupExperimentConfig config = baseConfig(topology);
  config.threads = 2;
  config.playback.base.conditionCursor = true;
  const GroupExperimentResult whole =
      runGroupExperiment(topology.graph(), tr, config);

  config.groupWindows = {GroupWindow{}, GroupWindow{}};
  const GroupExperimentResult windowed =
      runGroupExperiment(topology.graph(), tr, config);
  expectResultsIdentical(whole, windowed);
}

TEST(GroupExperiment, NarrowWindowScoresOnlyItsIntervals) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());
  const std::size_t intervals = tr.intervalCount();

  GroupExperimentConfig config = baseConfig(topology);
  config.threads = 2;
  config.schemes = {GroupSchemeKind::kStaticMesh};
  const GroupExperimentResult whole =
      runGroupExperiment(topology.graph(), tr, config);

  config.groupWindows = {GroupWindow{0, intervals / 4},
                         GroupWindow{intervals / 4, intervals / 2}};
  const GroupExperimentResult windowed =
      runGroupExperiment(topology.graph(), tr, config);
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    EXPECT_LE(windowed.at(g, 0, 1).unavailableAllSeconds,
              whole.at(g, 0, 1).unavailableAllSeconds + 1e-9);
    EXPECT_LE(windowed.at(g, 0, 1).problematicIntervals,
              whole.at(g, 0, 1).problematicIntervals);
  }
}

TEST(GroupExperiment, SharedReceiverContextsAcrossWindowsMatchInMemoryRun) {
  // Two groups share the NYC->SJC receiver context under different
  // windows; the first window starts mid-chunk, the second on a chunk
  // boundary. The packed sweep replays that context once for both groups
  // and must still match the in-memory runner, which replays per job --
  // and be identical at 1 and 4 threads, telemetry exports included.
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());
  const std::size_t chunk = 64;
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "mcast_shared.dgtrace")
          .string();
  store::WriterOptions options;
  options.chunkIntervals = chunk;
  store::packTrace(tr, path, options);

  GroupExperimentConfig config;
  Group a;
  a.source = topology.at("NYC");
  a.receivers = {topology.at("SJC"), topology.at("LAX")};
  Group b;
  b.source = topology.at("NYC");
  b.receivers = {topology.at("SEA"), topology.at("SJC"), topology.at("ATL")};
  config.groups = {a, b};
  config.groupWindows = {GroupWindow{chunk + 7, tr.intervalCount() - 30},
                         GroupWindow{3 * chunk, tr.intervalCount()}};
  config.playback.base.mcSamples = 100;

  config.threads = 4;
  telemetry::Telemetry packed4;
  const GroupExperimentResult at4 =
      runPackedGroupExperiment(topology.graph(), path, config, &packed4);
  config.threads = 1;
  telemetry::Telemetry packed1;
  const GroupExperimentResult at1 =
      runPackedGroupExperiment(topology.graph(), path, config, &packed1);
  expectResultsIdentical(at4, at1);
  EXPECT_EQ(telemetry::toPrometheus(packed4.metrics),
            telemetry::toPrometheus(packed1.metrics));
  EXPECT_EQ(telemetry::toJson(packed4.trace), telemetry::toJson(packed1.trace));

  // The in-memory runner scores each window in one task, so its graph
  // switch counts see no chunk boundary: equal counts mean every chunk
  // task took over the selection in force from its checkpoint. (Float
  // histogram sums differ in their last bits: the fold order differs.)
  GroupExperimentConfig blocked = config;
  blocked.threads = 2;
  blocked.playback.base.conditionCursor = true;
  blocked.playback.base.accumBlockIntervals = chunk;
  telemetry::Telemetry inMemoryTelemetry;
  expectResultsIdentical(at4, runGroupExperiment(topology.graph(), tr, blocked,
                                                 &inMemoryTelemetry));
  const auto switches = [](const telemetry::Telemetry& t) {
    std::map<std::string, double> out;
    for (const auto& [key, value] :
         telemetry::parsePrometheus(telemetry::toPrometheus(t.metrics))) {
      if (key.starts_with("dg_mcast_graph_switches_total")) out[key] = value;
    }
    return out;
  };
  const std::map<std::string, double> packedSwitches = switches(packed4);
  EXPECT_EQ(packedSwitches, switches(inMemoryTelemetry));
  double total = 0.0;
  for (const auto& [key, value] : packedSwitches) total += value;
  EXPECT_GT(total, 0.0);
}

TEST(GroupExperiment, LateWindowsMatchInMemoryRunAtStaleness0And2) {
  // Windows on days 6 and 7 of a week-long trace, so every task start is
  // checkpointed by a replay that stops far from interval 0 -- the
  // bounded replay restarts each context near its stop. Targeted and
  // dynamic receivers, two groups sharing NYC->SJC; packed must equal the
  // in-memory runner and 1 thread must equal 4, exports included, at
  // staleness 0 and 2.
  const trace::Topology topology = trace::Topology::ltn12();
  trace::GeneratorParams generator;
  generator.seed = 23;
  generator.duration = util::hours(24 * 7);
  generator.nodeEventsPerDay = 40.0;
  generator.linkEventsPerDay = 40.0;
  const trace::Trace tr =
      trace::generateSyntheticTrace(topology.graph(), generator).trace;
  const std::size_t chunk = 256;
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "mcast_late.dgtrace")
          .string();
  store::WriterOptions options;
  options.chunkIntervals = chunk;
  store::packTrace(tr, path, options);

  const std::size_t day = tr.intervalCount() / 7;
  GroupExperimentConfig config;
  Group a;
  a.source = topology.at("NYC");
  a.receivers = {topology.at("SJC"), topology.at("LAX")};
  Group b;
  b.source = topology.at("NYC");
  b.receivers = {topology.at("SEA"), topology.at("SJC"), topology.at("ATL")};
  config.groups = {a, b};
  config.schemes = {GroupSchemeKind::kDynamicTrees,
                    GroupSchemeKind::kDynamicMesh,
                    GroupSchemeKind::kTargetedReceivers};
  config.groupWindows = {
      GroupWindow{5 * day + 37, 5 * day + 37 + 4 * chunk},
      GroupWindow{6 * day + chunk, 6 * day + 4 * chunk + 11}};
  config.playback.base.mcSamples = 100;

  for (const int staleness : {0, 2}) {
    SCOPED_TRACE("staleness " + std::to_string(staleness));
    config.playback.base.viewStaleness = staleness;
    config.threads = 4;
    telemetry::Telemetry packed4;
    const GroupExperimentResult at4 =
        runPackedGroupExperiment(topology.graph(), path, config, &packed4);
    config.threads = 1;
    telemetry::Telemetry packed1;
    const GroupExperimentResult at1 =
        runPackedGroupExperiment(topology.graph(), path, config, &packed1);
    expectResultsIdentical(at4, at1);
    EXPECT_EQ(telemetry::toPrometheus(packed4.metrics),
              telemetry::toPrometheus(packed1.metrics));
    EXPECT_EQ(telemetry::toJson(packed4.trace),
              telemetry::toJson(packed1.trace));

    GroupExperimentConfig blocked = config;
    blocked.threads = 4;
    blocked.playback.base.conditionCursor = true;
    blocked.playback.base.accumBlockIntervals = chunk;
    telemetry::Telemetry inMemory4;
    expectResultsIdentical(
        at4, runGroupExperiment(topology.graph(), tr, blocked, &inMemory4));
    blocked.threads = 1;
    telemetry::Telemetry inMemory1;
    expectResultsIdentical(
        at4, runGroupExperiment(topology.graph(), tr, blocked, &inMemory1));
    EXPECT_EQ(telemetry::toPrometheus(inMemory4.metrics),
              telemetry::toPrometheus(inMemory1.metrics));
    EXPECT_EQ(telemetry::toJson(inMemory4.trace),
              telemetry::toJson(inMemory1.trace));
    // Graph switches counted across chunk boundaries equal the one-task
    // in-memory run's: every chunk took over its checkpointed selection.
    const auto switches = [](const telemetry::Telemetry& t) {
      std::map<std::string, double> out;
      for (const auto& [key, value] :
           telemetry::parsePrometheus(telemetry::toPrometheus(t.metrics))) {
        if (key.starts_with("dg_mcast_graph_switches_total")) out[key] = value;
      }
      return out;
    };
    const std::map<std::string, double> packedSwitches = switches(packed4);
    EXPECT_EQ(packedSwitches, switches(inMemory4));
    double total = 0.0;
    for (const auto& [key, value] : packedSwitches) total += value;
    EXPECT_GT(total, 0.0);

    // Against a scoring run from interval 0, whose decisions roll every
    // interval itself: each interval's miss depends only on the graph in
    // force and the interval's own Monte-Carlo stream, so the window's
    // problematic intervals must match one for one.
    const playback::PlaybackEngine engine(topology.graph(), tr,
                                          config.playback.base,
                                          config.playback.deliveredK);
    std::size_t compared = 0;
    for (std::size_t g = 0; g < config.groups.size(); ++g) {
      for (std::size_t k = 0; k < config.schemes.size(); ++k) {
        const GroupWindow& window = config.groupWindows[g];
        const GroupSchemeResult fromZero = engine.runRange(
            config.groups[g], config.schemes[k], config.schemeParams, 0,
            window.lastInterval);
        std::vector<playback::ProblematicInterval> expected;
        for (const playback::ProblematicInterval& p : fromZero.problems) {
          if (p.interval >= window.firstInterval) expected.push_back(p);
        }
        const GroupSchemeResult& got = at4.at(g, k, config.schemes.size());
        ASSERT_EQ(got.problems.size(), expected.size())
            << "group " << g << ", " << groupSchemeName(config.schemes[k]);
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(got.problems[i].interval, expected[i].interval);
          EXPECT_EQ(got.problems[i].missProbability,
                    expected[i].missProbability);
        }
        compared += expected.size();
      }
    }
    EXPECT_GT(compared, 0u);
  }
}

TEST(GroupExperiment, RejectsMalformedConfigs) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());

  GroupExperimentConfig empty;
  EXPECT_THROW(runGroupExperiment(topology.graph(), tr, empty),
               std::invalid_argument);

  GroupExperimentConfig config = baseConfig(topology);
  config.groupWindows = {GroupWindow{}};  // not parallel to groups
  EXPECT_THROW(runGroupExperiment(topology.graph(), tr, config),
               std::invalid_argument);

  config.groupWindows = {GroupWindow{10, 10}, GroupWindow{}};  // empty window
  EXPECT_THROW(runGroupExperiment(topology.graph(), tr, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace dg::mcast
