// Chunk-parallel packed sweep: runPackedExperiment must reproduce the
// in-memory blocked run bit for bit -- at any thread count, with chunk
// boundaries splitting active problems, and for single-chunk and
// short-tail-chunk containers.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "mcast/group.hpp"
#include "mcast/scheme.hpp"
#include "playback/experiment.hpp"
#include "playback/playback.hpp"
#include "store/writer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace dg {
namespace {

/// Randomized ltn12 trace exercising both the deterministic and the
/// Monte-Carlo evaluation paths (same construction as the golden
/// equivalence suite).
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

std::string packToTemp(const trace::Trace& tr, const char* name,
                       std::uint32_t chunkIntervals) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  store::WriterOptions options;
  options.chunkIntervals = chunkIntervals;
  store::packTrace(tr, path, options);
  return path;
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

class ChunkedSweep : public ::testing::Test {
 protected:
  ChunkedSweep()
      : topology_(trace::Topology::ltn12()),
        trace_(randomTrace(topology_.graph(), 100, 424242)) {
    // Deviations hugging every chunk edge of the 32-interval layout
    // ([0,32) [32,64) [64,96) [96,100)): warm-up continuity across the
    // boundary and the per-chunk clean-eval cache reset only matter
    // when chunk boundaries split an active problem.
    for (const std::size_t t : {31u, 32u, 33u, 63u, 64u, 95u, 96u, 99u}) {
      trace::LinkConditions c = trace_.baseline(0);
      c.lossRate = 0.35;
      trace_.setCondition(0, t, c);
    }
    config_.flows = playback::transcontinentalFlows(topology_);
    config_.flows.resize(2);
    config_.playback.mcSamples = 120;
  }

  trace::Topology topology_;
  trace::Trace trace_;
  playback::ExperimentConfig config_;
};

TEST_F(ChunkedSweep, MatchesBlockedInMemoryRun) {
  const std::string path = packToTemp(trace_, "chunked32.dgtrace", 32);
  playback::ExperimentConfig packedConfig = config_;
  packedConfig.threads = 2;
  const auto packed = playback::runPackedExperiment(topology_.graph(), path,
                                                    packedConfig);

  playback::ExperimentConfig blocked = config_;
  blocked.playback.conditionCursor = true;
  blocked.playback.accumBlockIntervals = 32;  // the container's chunk size
  blocked.threads = 1;
  const auto inMemory =
      playback::runExperiment(topology_.graph(), trace_, blocked);

  ASSERT_EQ(packed.perFlow.size(), inMemory.perFlow.size());
  for (std::size_t i = 0; i < packed.perFlow.size(); ++i) {
    expectResultsIdentical(packed.perFlow[i], inMemory.perFlow[i]);
  }
  ASSERT_EQ(packed.summary.size(), inMemory.summary.size());
  for (std::size_t s = 0; s < packed.summary.size(); ++s) {
    EXPECT_EQ(packed.summary[s].unavailability,
              inMemory.summary[s].unavailability);
    EXPECT_EQ(packed.summary[s].averageCost,
              inMemory.summary[s].averageCost);
    EXPECT_EQ(packed.summary[s].gapCoverage,
              inMemory.summary[s].gapCoverage);
  }
}

TEST_F(ChunkedSweep, ThreadCountInvariantIncludingTelemetry) {
  const std::string path = packToTemp(trace_, "chunked_threads.dgtrace", 32);
  playback::ExperimentConfig config = config_;

  config.threads = 1;
  telemetry::Telemetry tel1;
  const auto r1 =
      playback::runPackedExperiment(topology_.graph(), path, config, &tel1);
  config.threads = 8;
  telemetry::Telemetry tel8;
  const auto r8 =
      playback::runPackedExperiment(topology_.graph(), path, config, &tel8);

  ASSERT_EQ(r1.perFlow.size(), r8.perFlow.size());
  for (std::size_t i = 0; i < r1.perFlow.size(); ++i) {
    expectResultsIdentical(r1.perFlow[i], r8.perFlow[i]);
  }
  EXPECT_EQ(telemetry::toPrometheus(tel1.metrics),
            telemetry::toPrometheus(tel8.metrics));
  EXPECT_EQ(telemetry::toJson(tel1.metrics),
            telemetry::toJson(tel8.metrics));
  EXPECT_EQ(telemetry::toJson(tel1.trace), telemetry::toJson(tel8.trace));
}

TEST_F(ChunkedSweep, SingleChunkContainerMatchesUnchunkedRun) {
  // chunkIntervals > intervalCount: one chunk, so the forced block never
  // folds mid-range and the packed run must equal the plain (block 0)
  // cursor run exactly.
  const std::string path = packToTemp(trace_, "chunked_one.dgtrace", 256);
  playback::ExperimentConfig packedConfig = config_;
  packedConfig.threads = 2;
  const auto packed = playback::runPackedExperiment(topology_.graph(), path,
                                                    packedConfig);
  const auto plain =
      playback::runExperiment(topology_.graph(), trace_, config_);
  ASSERT_EQ(packed.perFlow.size(), plain.perFlow.size());
  for (std::size_t i = 0; i < packed.perFlow.size(); ++i) {
    expectResultsIdentical(packed.perFlow[i], plain.perFlow[i]);
  }
}

TEST_F(ChunkedSweep, PartialFoldMatchesRunRange) {
  // The engine-level contract under the runner: folding runChunkPartial
  // results in ascending chunk order and finalizing equals runRange over
  // the union -- per scheme, including the interval straddling a chunk
  // edge (fed from the in-memory trace; null sources).
  playback::PlaybackParams params = config_.playback;
  params.accumBlockIntervals = 32;
  const playback::PlaybackEngine engine(topology_.graph(), trace_, params);
  const routing::Flow flow = config_.flows[0];
  for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
    playback::RunPartial total;
    for (std::size_t first = 0; first < trace_.intervalCount(); first += 32) {
      const std::size_t last =
          std::min<std::size_t>(first + 32, trace_.intervalCount());
      total.merge(engine.runChunkPartial(flow, kind, {}, first, last,
                                         nullptr, nullptr));
    }
    const auto folded = engine.finalizePartial(flow, kind, std::move(total));
    const auto direct =
        engine.runRange(flow, kind, {}, 0, trace_.intervalCount());
    expectResultsIdentical(folded, direct);
  }
}

// The Monte-Carlo verdict work a sweep reports -- verdict Dijkstra runs
// and inferred verdicts -- is a pure function of the evaluations made:
// the same at 1 and 4 threads, and the same for the packed runner and
// the in-memory runner blocked at the container's chunk length, for
// flows and for groups.
TEST_F(ChunkedSweep, DeliveryWorkIsThreadAndRunnerInvariant) {
  const std::string path = packToTemp(trace_, "chunked_work.dgtrace", 32);
  const graph::Graph& g = topology_.graph();
  const auto at = [&](const char* site) { return topology_.at(site); };
  const std::vector<mcast::Group> flowUnits = {
      mcast::oneReceiverGroup(config_.flows[0]),
      mcast::oneReceiverGroup(config_.flows[1])};
  const std::vector<mcast::Group> groups = {
      {at("NYC"), {at("SJC"), at("LAX"), at("SEA")}, {}},
      {at("WAS"), {at("SEA"), at("DFW"), at("CHI")}, {}}};
  std::vector<mcast::GroupSchemeKind> flowKinds;
  for (const routing::SchemeKind kind : routing::allSchemeKinds())
    flowKinds.push_back(mcast::groupEquivalent(kind));
  const std::vector<mcast::GroupSchemeKind> groupKinds =
      mcast::allGroupSchemeKinds();
  const auto ignore = [](const playback::PlaybackEngine&, std::size_t,
                         playback::RunPartial&&) {};

  for (const bool flows : {true, false}) {
    playback::SweepSpec packed;
    packed.units = flows ? flowUnits : groups;
    packed.schemes = flows ? flowKinds : groupKinds;
    packed.flowUnits = flows;
    packed.playback.base = config_.playback;
    playback::SweepSpec blocked = packed;
    blocked.playback.base.accumBlockIntervals = 32;

    packed.threads = 1;
    const playback::DeliveryWork reference =
        playback::runSweep(g, nullptr, path, packed, nullptr, ignore)
            .delivery;
    EXPECT_GT(reference.dijkstraRuns, 0u) << "flows " << flows;
    EXPECT_GT(reference.inferredVerdicts, 0u) << "flows " << flows;
    packed.threads = 4;
    EXPECT_EQ(
        playback::runSweep(g, nullptr, path, packed, nullptr, ignore)
            .delivery,
        reference)
        << "packed, 4 threads, flows " << flows;
    for (const unsigned threads : {1u, 4u}) {
      blocked.threads = threads;
      EXPECT_EQ(
          playback::runSweep(g, &trace_, "", blocked, nullptr, ignore)
              .delivery,
          reference)
          << "in-memory, " << threads << " threads, flows " << flows;
    }
  }
}

}  // namespace
}  // namespace dg
