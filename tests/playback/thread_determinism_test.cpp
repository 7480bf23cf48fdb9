// Determinism regression: the experiment runner promises byte-identical
// telemetry exports (and identical numeric results) for ANY --threads
// value. This pins that contract: a fixed config run with 1 worker and
// with 4 workers must produce the same per-flow numbers and the same
// bytes in every export format. Runs under TSan in CI, where it doubles
// as the race smoke for the runner + telemetry merge.
#include "playback/experiment.hpp"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg::playback {
namespace {

struct RunOutput {
  ExperimentResult result;
  std::string prometheus;
  std::string json;
  std::string csv;
  std::string traceJson;
};

RunOutput runWithThreads(unsigned threads) {
  const trace::Topology topology = trace::Topology::ltn12();
  trace::GeneratorParams gen;
  gen.seed = 77;
  gen.duration = util::hours(8);
  const auto synthetic = generateSyntheticTrace(topology.graph(), gen);

  ExperimentConfig config;
  config.flows = {
      routing::Flow{topology.at("NYC"), topology.at("SJC")},
      routing::Flow{topology.at("WAS"), topology.at("SEA")},
      routing::Flow{topology.at("JHU"), topology.at("LAX")},
  };
  config.playback.mcSamples = 200;
  config.threads = threads;

  RunOutput out;
  telemetry::Telemetry telemetry(4096);
  out.result = runExperiment(topology.graph(), synthetic.trace, config,
                             &telemetry);
  out.prometheus = telemetry::toPrometheus(telemetry.metrics);
  out.json = telemetry::toJson(telemetry.metrics);
  out.csv = telemetry::toCsv(telemetry.metrics);
  out.traceJson = telemetry::toJson(telemetry.trace);
  return out;
}

TEST(ThreadDeterminism, ExportsAreByteIdenticalAcrossThreadCounts) {
  const RunOutput one = runWithThreads(1);
  const RunOutput four = runWithThreads(4);

  // Byte-identical exports in every format.
  EXPECT_EQ(one.prometheus, four.prometheus);
  EXPECT_EQ(one.json, four.json);
  EXPECT_EQ(one.csv, four.csv);
  EXPECT_EQ(one.traceJson, four.traceJson);

  // And bit-identical numeric results, job by job.
  ASSERT_EQ(one.result.perFlow.size(), four.result.perFlow.size());
  for (std::size_t i = 0; i < one.result.perFlow.size(); ++i) {
    const FlowSchemeResult& a = one.result.perFlow[i];
    const FlowSchemeResult& b = four.result.perFlow[i];
    EXPECT_EQ(a.unavailability, b.unavailability) << "job " << i;
    EXPECT_EQ(a.unavailableSeconds, b.unavailableSeconds) << "job " << i;
    EXPECT_EQ(a.averageCost, b.averageCost) << "job " << i;
    EXPECT_EQ(a.problematicIntervals, b.problematicIntervals) << "job " << i;
  }
  ASSERT_EQ(one.result.summary.size(), four.result.summary.size());
  for (std::size_t s = 0; s < one.result.summary.size(); ++s) {
    EXPECT_EQ(one.result.summary[s].unavailability,
              four.result.summary[s].unavailability);
    EXPECT_EQ(one.result.summary[s].averageCost,
              four.result.summary[s].averageCost);
    EXPECT_EQ(one.result.summary[s].gapCoverage,
              four.result.summary[s].gapCoverage);
  }
}

// The work counts a sweep reports are pure functions of its inputs:
// decision-memo lookups, hits, misses and stored decisions, decision
// replay work and Monte-Carlo verdict work. Hits and misses repeat too
// because each context's memo table has one owner in phase 1 (see
// DecisionMemo).
TEST(ThreadDeterminism, WorkCountsAreThreadInvariant) {
  const RunOutput one = runWithThreads(1);
  const RunOutput four = runWithThreads(4);
  const routing::DecisionMemo::Stats& a = one.result.memoStats;
  const routing::DecisionMemo::Stats& b = four.result.memoStats;
  EXPECT_GT(a.lookups(), 0u);
  EXPECT_EQ(a.lookups(), b.lookups());
  EXPECT_GT(a.decisionHits, 0u);
  EXPECT_EQ(a.decisionHits, b.decisionHits);
  EXPECT_GT(a.decisionMisses, 0u);
  EXPECT_EQ(a.decisionMisses, b.decisionMisses);
  EXPECT_GT(a.decisions, 0u);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.edgeLists, b.edgeLists);
  EXPECT_EQ(a.contexts, b.contexts);
  EXPECT_EQ(one.result.replay.decisions, four.result.replay.decisions);
  EXPECT_EQ(one.result.replay.intervals, four.result.replay.intervals);
  EXPECT_GT(one.result.delivery.dijkstraRuns, 0u);
  EXPECT_EQ(one.result.delivery, four.result.delivery);
}

TEST(ThreadDeterminism, RepeatedRunsAreByteIdentical) {
  const RunOutput a = runWithThreads(4);
  const RunOutput b = runWithThreads(4);
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.traceJson, b.traceJson);
}

}  // namespace
}  // namespace dg::playback
