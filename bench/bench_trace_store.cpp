// Packed trace store benchmark (BENCH_trace_store.json).
//
// Generates a week-scale synthetic trace and measures the dgtrace store
// against the text format: encode/decode wall time and throughput, file
// sizes, and the bounded-memory evidence for the streaming paths -- the
// writer's peak buffered records (one chunk), the streaming generator's
// peak pending-impairment window, and the steady-state allocation count
// of a full chunked-cursor sweep (PackedConditionSource feeding a
// ConditionTimeline), which must stay O(chunk), not O(trace).
//
// Keys: --days=7 --seed=S --chunk_intervals=N --out=FILE; the other
// trace-generator parameters keep their defaults.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>

#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/stream.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"
#include "util/config.hpp"
#include "util/wall_clock.hpp"

// Allocation instrumentation (same scheme as bench_playback_throughput):
// count every operator new in the binary.
namespace {
std::atomic<std::uint64_t> g_allocationCount{0};
std::atomic<std::uint64_t> g_allocationBytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocationCount.fetch_add(1, std::memory_order_relaxed);
  g_allocationBytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dg;

std::uint64_t fileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config args;
  args.applyArgs(argc, argv);
  const auto topology = trace::Topology::ltn12();

  trace::GeneratorParams generator;
  generator.seed = static_cast<std::uint64_t>(args.getInt("seed", 20170605));
  generator.duration = util::hours(
      static_cast<std::int64_t>(args.getDouble("days", 7.0) * 24.0));
  store::WriterOptions options;
  options.chunkIntervals = static_cast<std::uint32_t>(
      args.getInt("chunk_intervals", store::kDefaultChunkIntervals));

  const std::string textPath = "bench_trace_store.tmp.trace";
  const std::string packedPath = "bench_trace_store.tmp.dgtrace";
  util::WallClock clock;

  // Streaming generation straight into the packed store: the end-to-end
  // bounded-memory path (no materialized Trace anywhere).
  clock.start();
  trace::StreamGenerationStats streamStats;
  std::uint64_t packedBytes = 0;
  std::size_t writerPeakRecords = 0;
  std::uint64_t packedRecords = 0;
  {
    std::ofstream out(packedPath, std::ios::binary | std::ios::trunc);
    store::StoreWriter writer(out, options);
    streamSyntheticTrace(topology.graph(), generator, writer, &streamStats);
    packedBytes = writer.bytesWritten();
    writerPeakRecords = writer.peakBufferedRecords();
    packedRecords = writer.recordsWritten();
  }
  const double streamEncodeSeconds = clock.elapsedSeconds();

  // Batch generation + text save, the legacy pipeline.
  const auto synthetic = generateSyntheticTrace(topology.graph(), generator);
  clock.start();
  synthetic.trace.save(textPath);
  const double textSaveSeconds = clock.elapsedSeconds();
  clock.start();
  const auto textLoaded = trace::Trace::load(textPath);
  const double textLoadSeconds = clock.elapsedSeconds();
  const std::uint64_t textBytes = fileSize(textPath);

  // Packed decode + verify.
  clock.start();
  auto reader = store::PackedTraceReader::open(packedPath);
  const auto decoded = reader.readAll();
  const double packedLoadSeconds = clock.elapsedSeconds();
  clock.start();
  const auto verifyReport = reader.verify();
  const double verifySeconds = clock.elapsedSeconds();

  const bool lossless = decoded == synthetic.trace;

  // Steady-state chunked cursor sweep: warm one pass, then measure the
  // second pass's allocations. The cursor + source reuse their decode
  // workspace, so the measured pass should allocate O(chunks), not
  // O(intervals).
  store::PackedConditionSource source(reader);
  trace::ConditionTimeline cursor(source);
  const std::size_t intervals =
      static_cast<std::size_t>(reader.info().intervalCount);
  for (std::size_t i = 0; i < intervals; ++i) cursor.seek(i);
  const std::uint64_t allocBefore =
      g_allocationCount.load(std::memory_order_relaxed);
  clock.start();
  for (std::size_t i = 0; i < intervals; ++i) cursor.seek(i);
  const double sweepSeconds = clock.elapsedSeconds();
  const std::uint64_t sweepAllocations =
      g_allocationCount.load(std::memory_order_relaxed) - allocBefore;

  std::remove(textPath.c_str());
  std::remove(packedPath.c_str());

  const double days = util::toSeconds(synthetic.trace.duration()) / 86'400.0;
  std::cout << "=== trace store: " << days << " days, "
            << synthetic.trace.intervalCount() << " intervals, "
            << packedRecords << " deviation records ===\n"
            << "text:   " << textBytes << " bytes, save "
            << textSaveSeconds << " s, load " << textLoadSeconds << " s\n"
            << "packed: " << packedBytes << " bytes ("
            << (textBytes > 0
                    ? static_cast<double>(packedBytes) /
                          static_cast<double>(textBytes)
                    : 0.0)
            << "x of text), stream-encode " << streamEncodeSeconds
            << " s, load " << packedLoadSeconds << " s, verify "
            << verifySeconds << " s\n"
            << "bounded memory: writer peak " << writerPeakRecords
            << " buffered records, generator peak "
            << streamStats.peakPendingOps << " pending impairments\n"
            << "cursor sweep: " << sweepAllocations << " allocations over "
            << intervals << " intervals (" << sweepSeconds << " s)\n"
            << "lossless: " << (lossless ? "yes" : "NO")
            << ", text-roundtrip-equal: "
            << (textLoaded == synthetic.trace ? "yes" : "no (precision)")
            << "\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"days\": " << days << ",\n"
       << "  \"intervals\": " << synthetic.trace.intervalCount() << ",\n"
       << "  \"records\": " << packedRecords << ",\n"
       << "  \"chunk_intervals\": " << options.chunkIntervals << ",\n"
       << "  \"chunks_verified\": " << verifyReport.chunksVerified << ",\n"
       << "  \"text_bytes\": " << textBytes << ",\n"
       << "  \"packed_bytes\": " << packedBytes << ",\n"
       << "  \"text_save_seconds\": " << textSaveSeconds << ",\n"
       << "  \"text_load_seconds\": " << textLoadSeconds << ",\n"
       << "  \"stream_encode_seconds\": " << streamEncodeSeconds << ",\n"
       << "  \"packed_load_seconds\": " << packedLoadSeconds << ",\n"
       << "  \"verify_seconds\": " << verifySeconds << ",\n"
       << "  \"writer_peak_buffered_records\": " << writerPeakRecords
       << ",\n"
       << "  \"generator_peak_pending_ops\": "
       << streamStats.peakPendingOps << ",\n"
       << "  \"cursor_sweep_allocations\": " << sweepAllocations << ",\n"
       << "  \"cursor_sweep_seconds\": " << sweepSeconds << ",\n"
       << "  \"lossless\": " << (lossless ? "true" : "false") << "\n"
       << "}\n";

  const std::string outPath =
      args.getString("out", "BENCH_trace_store.json");
  std::ofstream out(outPath);
  out << json.str();
  std::cout << "wrote " << outPath << "\n";
  return lossless ? 0 : 1;
}
