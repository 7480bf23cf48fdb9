// Persistent decision-memo sidecar: snapshot/absorb value round trips,
// file round trips, rejection of stale/truncated/corrupt caches (a cache
// problem may cost time, never correctness), and the warm-start path of
// the packed sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "playback/experiment.hpp"
#include "playback/memo_cache.hpp"
#include "routing/decision_memo.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace dg {
namespace {

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

std::string tempPath(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string packToTemp(const trace::Trace& tr, const char* name,
                       std::uint32_t chunkIntervals) {
  const std::string path = tempPath(name);
  store::WriterOptions options;
  options.chunkIntervals = chunkIntervals;
  store::packTrace(tr, path, options);
  return path;
}

/// A memo with both decision shapes (real route, no-route), two contexts
/// differing only in params, and an empty edge list.
void populate(routing::DecisionMemo& memo) {
  const std::vector<graph::EdgeId> listA = {3, 7, 11};
  const std::vector<graph::EdgeId> listB = {};
  routing::SchemeParams params;
  const std::uint64_t ctx1 = memo.contextKey(
      routing::SchemeKind::DynamicSinglePath, routing::Flow{1, 9}, params);
  params.deadline = util::milliseconds(80);
  const std::uint64_t ctx2 = memo.contextKey(
      routing::SchemeKind::DynamicSinglePath, routing::Flow{1, 9}, params);
  memo.storeDecision(ctx1, 5, memo.internEdgeList(ctx1, listA));
  memo.storeDecision(ctx1, 9, memo.internEdgeList(ctx1, listB));
  memo.storeDecision(ctx1, 12, routing::DecisionMemo::kNoRoute);
  memo.storeDecision(ctx2, 5, memo.internEdgeList(ctx2, listB));
}

void expectSnapshotsEqual(const routing::DecisionMemo::Snapshot& a,
                          const routing::DecisionMemo::Snapshot& b) {
  ASSERT_EQ(a.edgeLists.size(), b.edgeLists.size());
  for (std::size_t i = 0; i < a.edgeLists.size(); ++i) {
    EXPECT_EQ(a.edgeLists[i], b.edgeLists[i]);
  }
  ASSERT_EQ(a.contexts.size(), b.contexts.size());
  for (std::size_t i = 0; i < a.contexts.size(); ++i) {
    EXPECT_EQ(a.contexts[i].kind, b.contexts[i].kind);
    EXPECT_TRUE(a.contexts[i].flow == b.contexts[i].flow);
    EXPECT_TRUE(a.contexts[i].params == b.contexts[i].params);
    EXPECT_EQ(a.contexts[i].decisions, b.contexts[i].decisions);
  }
}

TEST(DecisionMemoSnapshot, AbsorbRoundTripPreservesEverything) {
  routing::DecisionMemo original;
  populate(original);
  const auto snap = original.snapshot();

  routing::DecisionMemo copy;
  copy.absorb(snap);
  expectSnapshotsEqual(copy.snapshot(), snap);
  EXPECT_EQ(copy.stats().decisions, original.stats().decisions);
  EXPECT_EQ(copy.stats().contexts, original.stats().contexts);
  EXPECT_EQ(copy.stats().edgeLists, original.stats().edgeLists);
}

TEST(DecisionMemoSnapshot, AbsorbKeepsExistingEntries) {
  routing::DecisionMemo memo;
  populate(memo);
  routing::SchemeParams params;
  const std::uint64_t ctx = memo.contextKey(
      routing::SchemeKind::DynamicSinglePath, routing::Flow{1, 9}, params);
  const std::uint32_t winner =
      memo.internEdgeList(ctx, std::vector<graph::EdgeId>{42});
  // Conflicting snapshot for (ctx1, fp 5): existing entries must win.
  routing::DecisionMemo donor;
  populate(donor);
  memo.storeDecision(ctx, 99, winner);
  memo.absorb(donor.snapshot());
  std::vector<graph::EdgeId> out;
  EXPECT_EQ(memo.findDecision(ctx, 99, out), winner);
  EXPECT_EQ(out, (std::vector<graph::EdgeId>{42}));
}

TEST(MemoCacheFile, MissingFileReportsMissing) {
  routing::DecisionMemo memo;
  EXPECT_EQ(playback::loadMemoCache(tempPath("nope.dgmemo"), 1, memo),
            playback::MemoCacheLoadResult::kMissing);
  EXPECT_EQ(memo.stats().decisions, 0u);
}

TEST(MemoCacheFile, SaveLoadRoundTrip) {
  routing::DecisionMemo memo;
  populate(memo);
  const std::string path = tempPath("roundtrip.dgmemo");
  playback::saveMemoCache(path, 0xFEEDFACEu, memo);

  routing::DecisionMemo loaded;
  ASSERT_EQ(playback::loadMemoCache(path, 0xFEEDFACEu, loaded),
            playback::MemoCacheLoadResult::kLoaded);
  expectSnapshotsEqual(loaded.snapshot(), memo.snapshot());
}

TEST(MemoCacheFile, WrongFingerprintRejected) {
  routing::DecisionMemo memo;
  populate(memo);
  const std::string path = tempPath("stale.dgmemo");
  playback::saveMemoCache(path, 111, memo);
  routing::DecisionMemo loaded;
  EXPECT_EQ(playback::loadMemoCache(path, 222, loaded),
            playback::MemoCacheLoadResult::kRejected);
  EXPECT_EQ(loaded.stats().decisions, 0u);
}

TEST(MemoCacheFile, TruncationAndCorruptionRejected) {
  routing::DecisionMemo memo;
  populate(memo);
  const std::string path = tempPath("corrupt.dgmemo");
  playback::saveMemoCache(path, 7, memo);

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 40u);

  const auto writeBytes = [&](const std::vector<char>& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Truncation (drops the payload CRC and more).
  writeBytes({bytes.begin(), bytes.end() - 5});
  routing::DecisionMemo loaded;
  EXPECT_EQ(playback::loadMemoCache(path, 7, loaded),
            playback::MemoCacheLoadResult::kRejected);

  // One flipped payload byte: payload CRC catches it.
  std::vector<char> flipped = bytes;
  flipped[36] = static_cast<char>(flipped[36] ^ 0x40);
  writeBytes(flipped);
  EXPECT_EQ(playback::loadMemoCache(path, 7, loaded),
            playback::MemoCacheLoadResult::kRejected);

  // One flipped header byte: header CRC catches it.
  flipped = bytes;
  flipped[13] = static_cast<char>(flipped[13] ^ 0x01);
  writeBytes(flipped);
  EXPECT_EQ(playback::loadMemoCache(path, 7, loaded),
            playback::MemoCacheLoadResult::kRejected);

  // The intact original still loads (the fixture itself is valid).
  writeBytes(bytes);
  EXPECT_EQ(playback::loadMemoCache(path, 7, loaded),
            playback::MemoCacheLoadResult::kLoaded);
  EXPECT_EQ(loaded.stats().decisions, memo.stats().decisions);
}

TEST(StoreFingerprint, StableAcrossReopensAndContentSensitive) {
  const auto topology = trace::Topology::ltn12();
  const trace::Trace a = randomTrace(topology.graph(), 64, 1);
  trace::Trace b = a;
  {
    trace::LinkConditions c = b.baseline(2);
    c.lossRate = 0.123;
    b.setCondition(2, 40, c);
  }
  const std::string pathA = packToTemp(a, "fp_a.dgtrace", 16);
  const std::string pathA2 = packToTemp(a, "fp_a2.dgtrace", 16);
  const std::string pathA3 = packToTemp(a, "fp_a3.dgtrace", 32);
  const std::string pathB = packToTemp(b, "fp_b.dgtrace", 16);
  auto open = [](const std::string& p) {
    return store::PackedTraceReader::open(p);
  };
  const std::uint64_t fpA = open(pathA).contentFingerprint();
  EXPECT_EQ(fpA, open(pathA).contentFingerprint());   // reopen: stable
  EXPECT_EQ(fpA, open(pathA2).contentFingerprint());  // same bytes
  EXPECT_NE(fpA, open(pathB).contentFingerprint());   // one condition off
  EXPECT_NE(fpA, open(pathA3).contentFingerprint());  // different layout
}

class MemoCacheSweep : public ::testing::Test {
 protected:
  MemoCacheSweep()
      : topology_(trace::Topology::ltn12()),
        trace_(randomTrace(topology_.graph(), 64, 99)) {
    config_.flows = playback::transcontinentalFlows(topology_);
    config_.flows.resize(2);
    config_.playback.mcSamples = 100;
    config_.threads = 2;
  }

  trace::Topology topology_;
  trace::Trace trace_;
  playback::ExperimentConfig config_;
};

TEST_F(MemoCacheSweep, ColdThenWarmRunsMatchAndHit) {
  const std::string tracePath = packToTemp(trace_, "sweep.dgtrace", 16);
  config_.memoCachePath = tempPath("sweep.dgmemo");
  // TempDir() outlives the process: drop any sidecar a previous test run
  // left behind so the first run really starts cold.
  std::filesystem::remove(config_.memoCachePath);

  const auto cold = playback::runPackedExperiment(topology_.graph(),
                                                  tracePath, config_);
  EXPECT_EQ(cold.memoCacheLoad, playback::MemoCacheLoadResult::kMissing);
  EXPECT_GT(cold.memoStats.decisions, 0u);
  ASSERT_TRUE(std::filesystem::exists(config_.memoCachePath));

  const auto warm = playback::runPackedExperiment(topology_.graph(),
                                                  tracePath, config_);
  EXPECT_EQ(warm.memoCacheLoad, playback::MemoCacheLoadResult::kLoaded);
  EXPECT_GT(warm.memoStats.decisionHits, cold.memoStats.decisionHits);
  ASSERT_EQ(cold.perFlow.size(), warm.perFlow.size());
  for (std::size_t i = 0; i < cold.perFlow.size(); ++i) {
    EXPECT_EQ(cold.perFlow[i].unavailability, warm.perFlow[i].unavailability);
    EXPECT_EQ(cold.perFlow[i].averageCost, warm.perFlow[i].averageCost);
    EXPECT_EQ(cold.perFlow[i].averageLatencyUs,
              warm.perFlow[i].averageLatencyUs);
  }
}

TEST_F(MemoCacheSweep, CacheOfOtherTraceRejectedAndRunStaysCorrect) {
  const std::string pathA = packToTemp(trace_, "sweep_a.dgtrace", 16);
  const trace::Trace other = randomTrace(topology_.graph(), 64, 1234);
  const std::string pathB = packToTemp(other, "sweep_b.dgtrace", 16);
  config_.memoCachePath = tempPath("cross.dgmemo");

  playback::runPackedExperiment(topology_.graph(), pathA, config_);

  // Same sidecar, different trace: must be rejected, and the run must
  // equal a fresh cache-less run of that trace.
  const auto crossed = playback::runPackedExperiment(topology_.graph(),
                                                     pathB, config_);
  EXPECT_EQ(crossed.memoCacheLoad, playback::MemoCacheLoadResult::kRejected);
  playback::ExperimentConfig noCache = config_;
  noCache.memoCachePath.clear();
  const auto fresh = playback::runPackedExperiment(topology_.graph(), pathB,
                                                   noCache);
  ASSERT_EQ(crossed.perFlow.size(), fresh.perFlow.size());
  for (std::size_t i = 0; i < crossed.perFlow.size(); ++i) {
    EXPECT_EQ(crossed.perFlow[i].unavailability,
              fresh.perFlow[i].unavailability);
    EXPECT_EQ(crossed.perFlow[i].averageCost, fresh.perFlow[i].averageCost);
  }
  // And the sidecar now belongs to trace B.
  const auto warm = playback::runPackedExperiment(topology_.graph(), pathB,
                                                  config_);
  EXPECT_EQ(warm.memoCacheLoad, playback::MemoCacheLoadResult::kLoaded);
}

}  // namespace
}  // namespace dg
