// Golden unicast regression: a pinned two-day ltn12 synthetic trace is
// replayed for four transcontinental flows under every scheme, at view
// staleness 0/1/2 and accumulation blocks of 0 and one day. Every
// FlowSchemeResult field (doubles at %.17g), digests of the problem lists
// and of the collected interval latencies, one miss timeline per scheme,
// and the Prometheus and trace-event JSON exports of runExperiment
// (whole trace and windowed) and runPackedExperiment -- each checked
// byte-identical at 1 and 4 threads -- are compared EXACTLY against a
// committed fixture.
//
// To regenerate after an intentional behavior change:
//   DG_UPDATE_UNICAST_GOLDEN=1 ./test_playback --gtest_filter='UnicastGolden.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "playback/experiment.hpp"
#include "playback/playback.hpp"
#include "store/writer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg::playback {
namespace {

std::string fixturePath() {
  return std::string(DG_PLAYBACK_FIXTURE_DIR) + "/unicast_golden.txt";
}

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// FNV-1a 64 of a byte string.
std::uint64_t fnv(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Count, sum and FNV-1a of the %.17g rendering of a value sequence.
std::string digest(const std::vector<double>& values) {
  std::string rendered;
  for (const double v : values) rendered += g17(v) + ";";
  double sum = 0.0;
  for (const double v : values) sum += v;
  return "n=" + std::to_string(values.size()) + " sum=" + g17(sum) +
         " fnv=" + hex(fnv(rendered));
}

std::string flowLabel(routing::Flow flow) {
  return std::to_string(flow.source) + "->" + std::to_string(flow.destination);
}

void renderResult(std::ostringstream& out, const FlowSchemeResult& r) {
  out << "  unavailability " << g17(r.unavailability)
      << " unavailable-seconds " << g17(r.unavailableSeconds)
      << " problematic-intervals " << r.problematicIntervals << " cost "
      << g17(r.averageCost) << " latency-us " << g17(r.averageLatencyUs)
      << "\n  latencies " << digest(r.intervalLatenciesUs);
  std::string problems;
  for (const ProblematicInterval& p : r.problems)
    problems += std::to_string(p.interval) + ":" + g17(p.missProbability) + ";";
  out << "\n  problems n=" << r.problems.size() << " fnv=" << hex(fnv(problems))
      << "\n";
}

/// The full Prometheus export, then the trace-event JSON export as its
/// size and digest (the event log alone would be a megabyte).
std::string exports(const telemetry::Telemetry& telemetry) {
  const std::string events = telemetry::toJson(telemetry.trace);
  return telemetry::toPrometheus(telemetry.metrics) + "--- trace events=" +
         std::to_string(telemetry.trace.size()) + " bytes=" +
         std::to_string(events.size()) + " fnv=" + hex(fnv(events)) + "\n";
}

trace::Trace pinnedTrace(const graph::Graph& overlay) {
  trace::GeneratorParams params;
  params.seed = 20170605;
  params.duration = util::days(2);
  params.nodeEventsPerDay = 24.0;
  params.linkEventsPerDay = 6.0;
  return trace::generateSyntheticTrace(overlay, params).trace;
}

class UnicastGolden : public ::testing::Test {
 protected:
  UnicastGolden()
      : topology_(trace::Topology::ltn12()),
        trace_(pinnedTrace(topology_.graph())) {
    flows_ = transcontinentalFlows(topology_);
    flows_.resize(4);
    playback_.mcSamples = 50;
  }

  ExperimentConfig config() const {
    ExperimentConfig c;
    c.flows = flows_;
    c.playback = playback_;
    return c;
  }

  trace::Topology topology_;
  trace::Trace trace_;
  std::vector<routing::Flow> flows_;
  PlaybackParams playback_;
};

TEST_F(UnicastGolden, EngineAndRunnersMatchCommittedFixture) {
  ASSERT_EQ(trace_.intervalCount(), 17280u);
  const std::size_t day = trace_.intervalCount() / 2;
  std::ostringstream out;
  out << "unicast-golden v1 ltn12 days=2 seed=20170605 flows=4 "
         "mc-samples=50\n";

  // Engine runs: every field of every (staleness, block, flow, scheme).
  for (const int staleness : {0, 1, 2}) {
    for (const std::size_t block : {std::size_t{0}, day}) {
      PlaybackParams params = playback_;
      params.viewStaleness = staleness;
      params.accumBlockIntervals = block;
      params.collectIntervalLatencies = true;
      const PlaybackEngine engine(topology_.graph(), trace_, params);
      for (const routing::Flow flow : flows_) {
        for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
          out << "run staleness=" << staleness << " block=" << block
              << " flow=" << flowLabel(flow)
              << " scheme=" << routing::schemeName(kind) << "\n";
          renderResult(out, engine.run(flow, kind, {}));
        }
      }
    }
  }

  // Miss timelines: every interval evaluated fresh.
  {
    const PlaybackEngine engine(topology_.graph(), trace_, playback_);
    for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
      out << "timeline flow=" << flowLabel(flows_[0])
          << " scheme=" << routing::schemeName(kind) << " "
          << digest(engine.missTimeline(flows_[0], kind, {}, 0,
                                        trace_.intervalCount()))
          << "\n";
    }
  }

  // Runner exports, each byte-identical at 1 and 4 threads.
  const std::string packed =
      (std::filesystem::path(::testing::TempDir()) / "unicast_golden.dgtrace")
          .string();
  store::WriterOptions options;
  options.chunkIntervals = 2880;
  store::packTrace(trace_, packed, options);

  const auto sweep = [&](const char* name, ExperimentConfig c) {
    std::string byThreads[2];
    std::string resultsByThreads[2];
    for (const int i : {0, 1}) {
      c.threads = i == 0 ? 1u : 4u;
      telemetry::Telemetry telemetry;
      const ExperimentResult result =
          std::string(name) == "packed"
              ? runPackedExperiment(topology_.graph(), packed, c, &telemetry)
              : runExperiment(topology_.graph(), trace_, c, &telemetry);
      byThreads[i] = exports(telemetry);
      std::ostringstream results;
      for (const FlowSchemeResult& r : result.perFlow) renderResult(results, r);
      resultsByThreads[i] = results.str();
    }
    EXPECT_EQ(byThreads[0], byThreads[1])
        << name << ": exports differ between 1 and 4 threads";
    EXPECT_EQ(resultsByThreads[0], resultsByThreads[1])
        << name << ": results differ between 1 and 4 threads";
    out << "sweep " << name << "\n"
        << resultsByThreads[0] << "--- exports\n"
        << byThreads[0];
  };
  sweep("whole", config());
  {
    ExperimentConfig windowed = config();
    windowed.playback.accumBlockIntervals = 2880;
    windowed.flowWindows = {{0, 6000}, {1500, 9000}, {8640, 17280}, {4000, 4500}};
    sweep("windowed", windowed);
  }
  sweep("packed", config());
  std::filesystem::remove(packed);

  const std::string rendered = out.str();
  if (std::getenv("DG_UPDATE_UNICAST_GOLDEN") != nullptr) {
    std::ofstream file(fixturePath(), std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << fixturePath();
    file << rendered;
    GTEST_SKIP() << "fixture regenerated at " << fixturePath();
  }

  std::ifstream in(fixturePath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << fixturePath()
                         << " (run with DG_UPDATE_UNICAST_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str())
      << "unicast output drifted from the committed golden fixture; if the "
         "change is intentional, regenerate with DG_UPDATE_UNICAST_GOLDEN=1";
}

}  // namespace
}  // namespace dg::playback
