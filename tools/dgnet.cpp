// dgnet -- command-line front end for the dissemination-graphs library.
//
//   dgnet topology   [--topology=FILE|SPEC]
//       Print the overlay (sites, links, latencies).
//   dgnet topo gen   --family=SPEC [--out=FILE]
//   dgnet topo info  [--family=SPEC | --topology=FILE|SPEC]
//       Generator-family tooling: gen emits a topology in the text
//       format (stdout when --out is omitted), info prints size, degree
//       and latency statistics plus the per-family parameter reference.
//       SPEC is "family:key=value,..." -- families mesh, ring,
//       scale-free; bare builtin names (ltn12, abilene11, mesh5) also
//       work. Example: scale-free:n=500,seed=7.
//   dgnet gen-trace  (--days=N | --hours=N) [--seed=S] --out=FILE
//                    [--csv=FILE] [--chunk-intervals=N]
//       Generate a synthetic condition trace (and optionally a CSV
//       measurement export) plus its ground-truth event log on stderr.
//       When --out ends in .dgtrace the trace is STREAMED into the
//       packed binary store (bounded memory, full double precision)
//       instead of materialized and saved as text; --chunk-intervals
//       sets the store's chunk geometry (packed output only).
//   dgnet inspect    --trace=FILE
//       Summarize a trace: horizon, deviation density, worst links.
//   dgnet trace pack   --in=FILE --out=FILE [--chunk-intervals=N]
//   dgnet trace info   --in=FILE
//   dgnet trace verify --in=FILE
//   dgnet trace cat    --in=FILE [--out=FILE]
//       Packed-trace ("dgtrace") tooling: pack converts a text or packed
//       trace into the columnar binary store; info prints the container
//       geometry, content fingerprint and per-chunk layout (interval
//       range, record count, payload bytes, file offset -- footer index
//       only) without decoding chunks; verify CRC-checks and decodes
//       every region (exit codes: 2 io-error, 3 bad-magic,
//       4 version-mismatch, 5 truncated, 6 checksum-mismatch,
//       7 corrupt); cat decodes a packed trace to the text format.
//   dgnet import     --csv=FILE --out=FILE [--interval_s=10]
//       Convert external CSV measurements into the trace format.
//   dgnet simulate   --source=A --destination=B --scheme=NAME --seconds=N
//                    (--trace=FILE | --days=N [--seed=S])
//       Drive the packet-level overlay (forwarding + recovery) live.
//   dgnet sweep      [--flows=SRC:DST,... | --workload=SPEC |
//                     --workload-file=FILE | --groups=SRC:R1+R2,... |
//                     --group-workload=SPEC | --group-workload-file=FILE]
//                    [--workload-out=FILE] [--schemes=a,b,...]
//                    [--threads=N] [--mc-samples=N] [--memo-cache=FILE]
//                    [--deadline-us=65000] [--delivered-k=K] [--per-group]
//                    (--trace=FILE | --days=N [--seed=S])
//       Replay every unit under every scheme and print the per-scheme
//       summary. Units (at most one flag): flows, by default the 16
//       transcontinental ones, or receiver groups scored per send against
//       every receiver's deadline (group schemes: static-trees,
//       dynamic-trees, static-mesh, dynamic-mesh, targeted-receivers,
//       group-flooding). The workload flags generate an open-loop fleet
//       (SPEC like "poisson:flows=1000,seed=3,mean=0.5"; groups add
//       receivers-min/-max; see src/topogen/workload.hpp) whose start/stop
//       times become scoring windows; --workload-out records it for the
//       -file flags. A packed --trace runs the chunk-parallel packed
//       runner, a text trace or --days the in-memory one. --memo-cache
//       (packed flow sweeps only) keeps the decision memo in a sidecar
//       keyed by the trace's fingerprint, so repeat sweeps start warm; a
//       stale or corrupt sidecar means a cold start. --deadline-us,
//       --delivered-k and --per-group apply to group sweeps only. Results
//       and exports are byte-identical for any --threads.
//   dgnet graph dump --interval=N [--staleness=1] [--format=dot|json]
//                    [--out=FILE] [--deadline-us=65000]
//                    (--source=A --destination=B --scheme=NAME |
//                     --group=SRC:R1+R2 --group-scheme=NAME)
//                    (--trace=FILE | --days=N [--seed=S])
//       Export the dissemination graph any scheme (unicast or group) has
//       in force at a given interval, reproduced by replaying decisions
//       over [0, interval] exactly as playback would.
//
// Integer flags are validated: --mc-samples=N (alias --mc_samples) must
// be in [1, 1e7] and --threads=N in [0, 4096] (0 = all cores); anything
// else -- including non-numeric values -- is a usage error (exit 2).
//   dgnet chaos      [--schedule=FILE | --seed=N [--faults=K] [--seconds=N]]
//                    [--record=FILE] [--compile-out=FILE]
//                    [--source=A --destination=B]
//                    [--scheme=NAME] [--recovery=1] [--mc_samples=N]
//       Drive the live overlay through a chaos fault schedule (scripted
//       via --schedule, or seeded-random via --seed), differentially
//       compare each flow's delivery against the playback model of the
//       equivalent trace, and report invariant-check results. --record
//       writes the schedule to FILE for replay. Bit-reproducible: the
//       same (topology, schedule, seed) always produces byte-identical
//       output and metrics exports.
//   dgnet fleet      [--topology=FILE] [--schedule=FILE | --seed=N
//                    [--faults=K] [--seconds=N] [--interval_s=N]]
//                    [--flows=SRC:DST:SCHEME,... |
//                     --source=A --destination=B --scheme=NAME]
//                    [--processes] [--port-base=47000] [--work-dir=DIR]
//                    [--record=FILE] [--recovery=1] [--mc_samples=N]
//                    [--packet-interval-us=5000] [--deadline-us=65000]
//       Run one live overlay daemon per topology site on 127.0.0.1 (real
//       UDP datagrams, epoll event loops), replay the chaos schedule as
//       socket-layer drops/delays, and differentially compare each
//       flow's live delivery against the playback model -- the same
//       tolerance the simulator chaos soak is held to. Default is every
//       daemon in-process on one event loop; --processes forks one dgnet
//       child per site (ports portBase+1+i, coordinator on an ephemeral
//       port). Only static schemes can run live.
//   dgnet daemon     --node=I --topology=FILE --schedule=FILE ...
//       Run a single live daemon until a coordinator's Shutdown arrives;
//       normally exec'd by `dgnet fleet --processes`, see cmdDaemon for
//       the full flag list.
//
// Exit codes: 0 success; 1 runtime failure (including a failed chaos or
// fleet differential); 2 usage error, including a flag the command does
// not read (see commandFlags); 64 unknown command; trace-store errors
// map to 2..7 (see `dgnet trace`).
//
// Every --trace=FILE may be in either trace format -- the packed store is
// detected by its magic bytes.
//
// sweep, simulate, chaos, fleet, daemon and the trace subcommands accept
// the shared telemetry flags:
//   --metrics-out=FILE     write collected metrics (- = stdout)
//   --metrics-format=FMT   prom (default) | json | csv
//   --trace-out=FILE       write the sim-time trace-event log as JSON
//
// All schemes: static-single dynamic-single static-two-disjoint
// dynamic-two-disjoint targeted flooding.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>

#include "chaos/bridge.hpp"
#include "chaos/injector.hpp"
#include "chaos/invariants.hpp"
#include "chaos/schedule.hpp"
#include "core/transport.hpp"
#include "live/daemon.hpp"
#include "live/event_loop.hpp"
#include "live/fleet.hpp"
#include "mcast/experiment.hpp"
#include "mcast/graph_dump.hpp"
#include "mcast/report.hpp"
#include "playback/experiment.hpp"
#include "playback/report.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "topogen/topogen.hpp"
#include "topogen/workload.hpp"
#include "trace/importer.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using namespace dg;

/// A flag value the user got wrong (not a runtime failure): main prints
/// the message plus the usage summary and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Validated integer flag: present-but-malformed or out-of-range values
/// are usage errors, so a typo like --threads=-3 or --mc-samples=abc
/// fails fast with exit 2 instead of a confusing runtime error (or a
/// silently absurd run).
std::int64_t getCheckedInt(const util::Config& args, std::string_view key,
                           std::int64_t fallback, std::int64_t min,
                           std::int64_t max) {
  if (!args.has(key)) return fallback;
  std::int64_t value = 0;
  try {
    value = args.getInt(key, fallback);
  } catch (const std::exception&) {
    throw UsageError("--" + std::string(key) + "=" + args.getString(key) +
                     " is not an integer");
  }
  if (value < min || value > max)
    throw UsageError("--" + std::string(key) + "=" + std::to_string(value) +
                     " out of range [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]");
  return value;
}

/// Monte-Carlo sample count; accepts --mc-samples and the historical
/// --mc_samples spelling.
int mcSamplesFlag(const util::Config& args, std::int64_t fallback) {
  const std::string_view key =
      args.has("mc-samples") ? "mc-samples" : "mc_samples";
  return static_cast<int>(getCheckedInt(args, key, fallback, 1, 10'000'000));
}

/// Worker thread count; 0 = hardware concurrency.
unsigned threadsFlag(const util::Config& args) {
  return static_cast<unsigned>(getCheckedInt(args, "threads", 0, 0, 4096));
}

/// Resolves a --topology / --family value: generator specs
/// ("scale-free:n=500,seed=7", bare family or builtin names) go through
/// the topogen families, anything else is a file path.
trace::Topology topologyFromValue(const std::string& value) {
  if (topogen::isFamilySpec(value)) return topogen::generateTopology(value);
  return trace::Topology::fromFile(value);
}

trace::Topology loadTopology(const util::Config& args) {
  if (args.has("topology")) return topologyFromValue(args.getString("topology"));
  return trace::Topology::ltn12();
}

/// Synthetic-trace span: --hours=N wins over --days=N (default 1 day).
/// Sub-day traces keep fleet-scale smokes tractable.
util::SimTime traceDuration(const util::Config& args) {
  if (args.has("hours"))
    return util::hours(getCheckedInt(args, "hours", 24, 1, 24 * 3650));
  return util::days(getCheckedInt(args, "days", 1, 1, 3650));
}

trace::Trace loadOrGenerateTrace(const trace::Topology& topology,
                                 const util::Config& args) {
  if (args.has("trace"))
    return store::loadAnyTrace(args.getString("trace"));
  trace::GeneratorParams params;
  params.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  params.duration = traceDuration(args);
  auto synthetic = generateSyntheticTrace(topology.graph(), params);
  std::cerr << "generated " << util::formatDuration(params.duration)
            << " synthetic trace (" << synthetic.events.size()
            << " events, seed " << params.seed << ")\n";
  return std::move(synthetic.trace);
}

/// True when any telemetry output flag is present.
bool telemetryRequested(const util::Config& args) {
  return args.has("metrics-out") || args.has("trace-out");
}

void writeOrPrint(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << content;
}

/// Writes --metrics-out / --trace-out as requested.
void emitTelemetry(const telemetry::Telemetry& telemetry,
                   const util::Config& args) {
  if (args.has("metrics-out")) {
    const std::string format = args.getString("metrics-format", "prom");
    if (format != "prom" && format != "json" && format != "csv")
      throw std::runtime_error("unknown --metrics-format '" + format +
                               "' (want prom, json or csv)");
    writeOrPrint(args.getString("metrics-out"),
                 format == "prom"   ? telemetry::toPrometheus(telemetry.metrics)
                 : format == "json" ? telemetry::toJson(telemetry.metrics)
                                    : telemetry::toCsv(telemetry.metrics));
  }
  if (args.has("trace-out"))
    writeOrPrint(args.getString("trace-out"),
                 telemetry::toJson(telemetry.trace));
}

int cmdTopology(const util::Config& args) {
  const auto topology = loadTopology(args);
  std::cout << topology.toString();
  return 0;
}

/// `dgnet topo gen|info`: generator-family front end.
int cmdTopo(const util::Config& args,
            const std::vector<std::string>& positional) {
  if (positional.size() < 2) {
    std::cerr << "usage: dgnet topo <gen|info> [--family=SPEC] ...\n";
    return 2;
  }
  const std::string& sub = positional[1];
  if (sub == "gen") {
    if (!args.has("family"))
      throw UsageError("topo gen: --family=SPEC required (e.g. "
                       "--family=scale-free:n=500,seed=7)");
    const auto topology = topogen::generateTopology(args.getString("family"));
    writeOrPrint(args.getString("out", "-"), topology.toString());
    std::cerr << "generated " << topology.siteCount() << " sites, "
              << topology.graph().edgeCount() << " directed links\n";
    return 0;
  }
  if (sub == "info") {
    const auto topology = args.has("family")
                              ? topogen::generateTopology(
                                    args.getString("family"))
                              : loadTopology(args);
    const graph::Graph& g = topology.graph();
    std::size_t minDegree = g.nodeCount() == 0 ? 0 : SIZE_MAX;
    std::size_t maxDegree = 0;
    for (std::size_t n = 0; n < g.nodeCount(); ++n) {
      const std::size_t degree =
          g.outEdges(static_cast<graph::NodeId>(n)).size();
      minDegree = std::min(minDegree, degree);
      maxDegree = std::max(maxDegree, degree);
    }
    util::OnlineStats latency;
    for (const util::SimTime l : g.baseLatencies())
      latency.add(util::toMillis(l));
    std::cout << "sites:           " << topology.siteCount() << '\n'
              << "directed links:  " << g.edgeCount() << '\n'
              << "degree:          " << minDegree << " min, "
              << util::formatFixed(
                     g.nodeCount() > 0
                         ? static_cast<double>(g.edgeCount()) /
                               static_cast<double>(g.nodeCount())
                         : 0.0,
                     2)
              << " mean, " << maxDegree << " max\n"
              << "link latency:    "
              << util::formatFixed(latency.min(), 2) << " ms min, "
              << util::formatFixed(latency.mean(), 2) << " ms mean, "
              << util::formatFixed(latency.max(), 2) << " ms max\n";
    std::cout << "\nfamilies:\n";
    for (const topogen::TopologyFamily* family : topogen::allFamilies())
      std::cout << "  " << util::padRight(std::string(family->name()), 12)
                << family->parameterHelp() << '\n';
    return 0;
  }
  std::cerr << "dgnet topo: unknown subcommand '" << sub
            << "' (want gen or info)\n";
  return 2;
}

bool wantsPackedOutput(const std::string& path) {
  return path.size() >= 8 && path.ends_with(".dgtrace");
}

int cmdGenTrace(const util::Config& args) {
  if (!args.has("out")) {
    std::cerr << "gen-trace: --out=FILE required\n";
    return 2;
  }
  const auto topology = loadTopology(args);
  trace::GeneratorParams params;
  params.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  params.duration = traceDuration(args);
  const std::string out = args.getString("out");

  std::vector<trace::ProblemEvent> events;
  std::size_t intervalCount = 0;
  if (wantsPackedOutput(out)) {
    // Stream the generator straight into the packed store: bit-identical
    // to the batch path, but memory stays bounded by the active-event
    // window plus one chunk, independent of --days.
    std::ofstream packed(out, std::ios::binary | std::ios::trunc);
    if (!packed) throw std::runtime_error("cannot open " + out);
    store::WriterOptions writerOptions;
    writerOptions.chunkIntervals = static_cast<std::uint32_t>(getCheckedInt(
        args, "chunk-intervals", store::kDefaultChunkIntervals, 1,
        1'000'000));
    store::StoreWriter writer(packed, writerOptions);
    trace::StreamGenerationStats stats;
    events = streamSyntheticTrace(topology.graph(), params, writer, &stats);
    packed.close();
    if (!packed) throw std::runtime_error("close failed: " + out);
    intervalCount =
        static_cast<std::size_t>(params.duration / params.intervalLength);
    std::cerr << "streamed " << writer.bytesWritten() << " bytes ("
              << writer.recordsWritten() << " deviation records, peak "
              << writer.peakBufferedRecords() << " buffered; "
              << stats.emittedIntervals << " non-clean intervals)\n";
    if (args.has("csv")) {
      const auto tr = store::loadPackedTrace(out);
      std::ofstream csv(args.getString("csv"));
      csv << exportMeasurementsCsv(topology, tr);
    }
  } else {
    const auto synthetic = generateSyntheticTrace(topology.graph(), params);
    synthetic.trace.save(out);
    if (args.has("csv")) {
      std::ofstream csv(args.getString("csv"));
      csv << exportMeasurementsCsv(topology, synthetic.trace);
    }
    events = synthetic.events;
    intervalCount = synthetic.trace.intervalCount();
  }
  std::cerr << "wrote " << out << ": " << intervalCount << " intervals, "
            << events.size() << " ground-truth events\n";
  for (const auto& event : events) {
    std::cerr << "  t=" << event.startInterval * 10 << "s +"
              << event.intervalCount * 10 << "s "
              << (event.kind == trace::ProblemEvent::Kind::Node
                      ? "site " + topology.name(event.node)
                      : "link " + topology.edgeName(event.link))
              << (event.impairment == trace::ProblemEvent::Impairment::Loss
                      ? " loss " + util::formatFixed(event.severity, 2)
                      : " latency +" +
                            util::formatDuration(event.latencyPenalty))
              << (event.activity < 1.0 ? " (fluttering)" : "") << '\n';
  }
  return 0;
}

int cmdInspect(const util::Config& args) {
  if (!args.has("trace")) {
    std::cerr << "inspect: --trace=FILE required\n";
    return 2;
  }
  const auto topology = loadTopology(args);
  const auto tr = store::loadAnyTrace(args.getString("trace"));
  std::size_t deviatedIntervals = 0;
  std::vector<std::size_t> perEdge(tr.edgeCount(), 0);
  std::size_t deviations = 0;
  for (std::size_t i = 0; i < tr.intervalCount(); ++i) {
    if (!tr.hasDeviation(i)) continue;
    ++deviatedIntervals;
    for (const auto& [edge, conditions] : tr.deviationsAt(i)) {
      ++perEdge[edge];
      ++deviations;
    }
  }
  std::cout << "intervals: " << tr.intervalCount() << " x "
            << util::formatDuration(tr.intervalLength()) << " = "
            << util::formatDuration(tr.duration()) << '\n'
            << "links: " << tr.edgeCount() << '\n'
            << "intervals with any deviation: " << deviatedIntervals << " ("
            << util::formatPercent(
                   static_cast<double>(deviatedIntervals) /
                       static_cast<double>(tr.intervalCount()),
                   2)
            << ")\n"
            << "total link-interval deviations: " << deviations << '\n';
  std::cout << "most-affected links:\n";
  std::vector<graph::EdgeId> order(tr.edgeCount());
  for (graph::EdgeId e = 0; e < tr.edgeCount(); ++e) order[e] = e;
  std::sort(order.begin(), order.end(), [&](graph::EdgeId a, graph::EdgeId b) {
    return perEdge[a] > perEdge[b];
  });
  for (std::size_t i = 0; i < std::min<std::size_t>(8, order.size()); ++i) {
    if (perEdge[order[i]] == 0) break;
    std::cout << "  " << util::padRight(topology.edgeName(order[i]), 10)
              << perEdge[order[i]] << " deviated intervals\n";
  }
  return 0;
}

int cmdImport(const util::Config& args) {
  if (!args.has("csv") || !args.has("out")) {
    std::cerr << "import: --csv=FILE --out=FILE required\n";
    return 2;
  }
  const auto topology = loadTopology(args);
  trace::ImportOptions options;
  options.intervalLength = util::seconds(args.getInt("interval_s", 10));
  options.skipUnknownSites = args.getBool("skip_unknown", false);
  const auto tr = trace::importMeasurementsCsvFile(
      topology, args.getString("csv"), options);
  tr.save(args.getString("out"));
  std::cerr << "imported " << tr.intervalCount() << " intervals -> "
            << args.getString("out") << '\n';
  return 0;
}

int cmdSimulate(const util::Config& args) {
  const auto topology = loadTopology(args);
  const auto tr = loadOrGenerateTrace(topology, args);
  const auto kind = routing::parseSchemeKind(
      args.getString("scheme", "targeted"));
  core::TransportService service(topology, tr);
  std::optional<telemetry::Telemetry> telemetry;
  if (telemetryRequested(args)) {
    telemetry.emplace();
    service.setTelemetry(&*telemetry);
  }
  const auto flow = service.openFlow(args.getString("source", "NYC"),
                                     args.getString("destination", "SJC"),
                                     kind);
  const auto seconds = args.getInt("seconds", 60);
  service.run(util::seconds(seconds));
  if (telemetry) emitTelemetry(*telemetry, args);
  const auto& stats = service.stats(flow);
  std::cout << "scheme:        " << routing::schemeName(kind) << '\n'
            << "sent:          " << stats.sent << '\n'
            << "on time:       " << stats.deliveredOnTime << " ("
            << util::formatPercent(stats.onTimeRate(), 3) << ")\n"
            << "late:          " << stats.deliveredLate << '\n'
            << "lost:          " << stats.lost() << '\n'
            << "mean latency:  "
            << util::formatFixed(stats.latencyUs.mean() / 1000.0, 2)
            << " ms\n"
            << "cost:          "
            << util::formatFixed(stats.costPerPacket(), 2) << " tx/pkt\n";
  return 0;
}

/// The trace a sweep scores: in memory, or a packed file that the packed
/// runner decodes itself, so only its footer is read here.
struct SweepTrace {
  std::optional<trace::Trace> inMemory;
  std::string packedPath;
  util::SimTime intervalLength = 0;
  std::size_t intervalCount = 0;

  util::SimTime duration() const {
    return intervalLength * static_cast<util::SimTime>(intervalCount);
  }
};

/// The flows x schemes sweep of `dgnet sweep`.
void sweepFlows(const util::Config& args, const trace::Topology& topology,
                const SweepTrace& input, telemetry::Telemetry* telemetry) {
  playback::ExperimentConfig config;
  if (args.has("flows")) {
    for (const mcast::Group& group :
         mcast::parseGroupList(args.getString("flows"), topology)) {
      if (group.receivers.size() != 1)
        throw UsageError("--flows entry '" + mcast::groupName(group, topology) +
                         "' has more than one receiver (use --groups)");
      config.flows.push_back(mcast::receiverFlow(group, 0));
    }
  } else if (args.has("workload") || args.has("workload-file")) {
    const topogen::FlowWorkload workload =
        args.has("workload")
            ? topogen::generateWorkload(
                  topology,
                  topogen::parseWorkloadSpec(args.getString("workload")))
            : topogen::workloadFromFile(args.getString("workload-file"),
                                        topology);
    if (args.has("workload-out"))
      writeOrPrint(args.getString("workload-out"),
                   topogen::workloadToString(workload, topology));
    for (const topogen::WorkloadFlow& f : workload.flows) {
      config.flows.push_back(f.flow);
      const auto [first, last] = topogen::flowIntervalWindow(
          f, input.intervalLength, input.intervalCount);
      config.flowWindows.push_back({first, last});
    }
    std::cerr << "workload: " << config.flows.size() << " flows\n";
  } else {
    config.flows = playback::transcontinentalFlows(topology);
  }
  if (args.has("schemes")) {
    config.schemes.clear();
    for (const std::string& name : util::split(args.getString("schemes"), ','))
      config.schemes.push_back(routing::parseSchemeKind(name));
  }
  config.playback.mcSamples = mcSamplesFlag(args, 1000);
  config.threads = threadsFlag(args);
  config.memoCachePath = args.getString("memo-cache", "");

  const graph::Graph& overlay = topology.graph();
  const auto result =
      input.inMemory
          ? playback::runExperiment(overlay, *input.inMemory, config, telemetry)
          : playback::runPackedExperiment(overlay, input.packedPath, config,
                                          telemetry);
  if (!config.memoCachePath.empty())
    std::cerr << "memo cache "
              << playback::memoCacheLoadResultName(result.memoCacheLoad)
              << ": " << result.memoStats.decisionHits << " hits / "
              << result.memoStats.decisionMisses << " misses\n";
  std::cout << playback::renderSummaryTable(result, input.duration(),
                                            config.flows.size());
}

/// The groups x group-schemes sweep of `dgnet sweep`.
void sweepGroups(const util::Config& args, const trace::Topology& topology,
                 const SweepTrace& input, telemetry::Telemetry* telemetry) {
  mcast::GroupExperimentConfig config;
  if (args.has("groups")) {
    config.groups = mcast::parseGroupList(args.getString("groups"), topology);
  } else {
    const topogen::GroupWorkload workload =
        args.has("group-workload")
            ? topogen::generateGroupWorkload(
                  topology, topogen::parseGroupWorkloadSpec(
                                args.getString("group-workload")))
            : topogen::groupWorkloadFromFile(
                  args.getString("group-workload-file"), topology);
    if (args.has("workload-out"))
      writeOrPrint(args.getString("workload-out"),
                   topogen::groupWorkloadToString(workload, topology));
    for (const topogen::WorkloadGroup& g : workload.groups) {
      config.groups.push_back({g.source, g.receivers, {}});
      const auto [first, last] = topogen::groupIntervalWindow(
          g, input.intervalLength, input.intervalCount);
      config.groupWindows.push_back({first, last});
    }
    std::cerr << "group workload: " << config.groups.size() << " groups\n";
  }
  if (args.has("schemes")) {
    config.schemes.clear();
    for (const std::string& name : util::split(args.getString("schemes"), ','))
      config.schemes.push_back(mcast::parseGroupSchemeKind(name));
  }
  config.playback.base.mcSamples = mcSamplesFlag(args, 1000);
  config.playback.base.delivery.deadline =
      args.getInt("deadline-us", config.playback.base.delivery.deadline);
  config.schemeParams.deadline = config.playback.base.delivery.deadline;
  config.playback.deliveredK = static_cast<std::size_t>(
      getCheckedInt(args, "delivered-k", 0, 0, 1'000'000));
  config.threads = threadsFlag(args);

  const graph::Graph& overlay = topology.graph();
  const auto result =
      input.inMemory
          ? mcast::runGroupExperiment(overlay, *input.inMemory, config,
                                      telemetry)
          : mcast::runPackedGroupExperiment(overlay, input.packedPath, config,
                                            telemetry);
  std::cout << mcast::renderGroupSummaryTable(result, input.duration(),
                                              config.groups.size());
  if (args.getBool("per-group", false))
    std::cout << '\n' << mcast::renderPerGroupTable(result, config, topology);
}

/// `dgnet sweep`: the units flag picks flows or groups, the trace input
/// the runner.
int cmdSweep(const util::Config& args) {
  int unitFlags = 0;
  for (const char* flag : {"flows", "workload", "workload-file", "groups",
                           "group-workload", "group-workload-file"})
    unitFlags += args.has(flag) ? 1 : 0;
  if (unitFlags > 1)
    throw UsageError(
        "give at most one of --flows / --workload / --workload-file / "
        "--groups / --group-workload / --group-workload-file");
  const bool groups = args.has("groups") || args.has("group-workload") ||
                      args.has("group-workload-file");
  for (const char* flag : {"deadline-us", "delivered-k", "per-group"})
    if (!groups && args.has(flag))
      throw UsageError("--" + std::string(flag) + " applies to groups only");
  SweepTrace input;
  if (args.has("trace") && store::isPackedTraceFile(args.getString("trace")))
    input.packedPath = args.getString("trace");
  if (args.has("memo-cache") && (groups || input.packedPath.empty()))
    throw UsageError(
        "--memo-cache needs a flow sweep over --trace=FILE in the packed "
        "dgtrace format (see `dgnet trace pack`)");

  const auto topology = loadTopology(args);
  if (input.packedPath.empty()) {
    input.inMemory.emplace(loadOrGenerateTrace(topology, args));
    input.intervalLength = input.inMemory->intervalLength();
    input.intervalCount = input.inMemory->intervalCount();
  } else {
    const auto reader = store::PackedTraceReader::open(input.packedPath);
    input.intervalLength = reader.info().intervalLength;
    input.intervalCount =
        static_cast<std::size_t>(reader.info().intervalCount);
  }
  std::optional<telemetry::Telemetry> telemetry;
  if (telemetryRequested(args)) telemetry.emplace();
  if (groups) {
    sweepGroups(args, topology, input, telemetry ? &*telemetry : nullptr);
  } else {
    sweepFlows(args, topology, input, telemetry ? &*telemetry : nullptr);
  }
  if (telemetry) emitTelemetry(*telemetry, args);
  return 0;
}

/// `dgnet graph dump`: export any scheme's dissemination graph at an
/// interval as DOT or JSON.
int cmdGraph(const util::Config& args,
             const std::vector<std::string>& positional) {
  if (positional.size() < 2 || positional[1] != "dump") {
    std::cerr << "usage: dgnet graph dump --interval=N ...\n";
    return 2;
  }
  const auto topology = loadTopology(args);
  const auto tr = loadOrGenerateTrace(topology, args);

  mcast::GraphDumpRequest request;
  request.interval = static_cast<std::size_t>(getCheckedInt(
      args, "interval", 0, 0,
      static_cast<std::int64_t>(tr.intervalCount()) - 1));
  request.viewStaleness =
      static_cast<int>(getCheckedInt(args, "staleness", 1, 0, 1'000'000));
  try {
    request.format = mcast::parseDumpFormat(args.getString("format", "dot"));
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }

  routing::SchemeParams schemeParams;
  schemeParams.deadline = args.getInt("deadline-us", schemeParams.deadline);

  std::string rendered;
  if (args.has("group")) {
    const mcast::Group group =
        mcast::parseGroupSpec(args.getString("group"), topology);
    const auto kind = mcast::parseGroupSchemeKind(
        args.getString("group-scheme", "dynamic-mesh"));
    rendered = mcast::dumpGroupGraph(topology.graph(), tr, topology, group,
                                     kind, schemeParams, request);
  } else {
    const routing::Flow flow{
        topology.at(args.getString("source", "NYC")),
        topology.at(args.getString("destination", "SJC"))};
    const auto kind =
        routing::parseSchemeKind(args.getString("scheme", "targeted"));
    rendered = mcast::dumpUnicastGraph(topology.graph(), tr, topology, flow,
                                       kind, schemeParams, request);
  }
  writeOrPrint(args.getString("out", "-"), rendered);
  return 0;
}

int cmdChaos(const util::Config& args) {
  const auto topology = loadTopology(args);

  chaos::ChaosSchedule schedule;
  if (args.has("schedule")) {
    schedule = chaos::ChaosSchedule::load(args.getString("schedule"));
  } else {
    chaos::ChaosScheduleParams params;
    params.seed = static_cast<std::uint64_t>(args.getInt("seed", 7));
    params.faults = static_cast<int>(args.getInt("faults", 6));
    params.horizon = util::seconds(args.getInt("seconds", 120));
    schedule = chaos::ChaosSchedule::random(topology, params);
  }
  schedule.validateAgainst(topology.graph());
  if (args.has("record")) {
    schedule.save(args.getString("record"));
    std::cerr << "recorded schedule -> " << args.getString("record") << '\n';
  }
  if (args.has("compile-out")) {
    // The playback-model trace the differential run compares against,
    // exported for offline replay (text, or packed when .dgtrace).
    const auto compiled = chaos::compileToTrace(schedule, topology);
    const std::string out = args.getString("compile-out");
    if (wantsPackedOutput(out)) {
      store::packTrace(compiled, out);
    } else {
      compiled.save(out);
    }
    std::cerr << "compiled schedule trace -> " << out << '\n';
  }

  std::cout << "schedule: " << schedule.faults().size() << " faults over "
            << util::formatDuration(schedule.horizon()) << '\n';
  for (const chaos::ChaosFault& fault : schedule.faults()) {
    std::cout << "  t=" << util::formatDuration(fault.start) << " +"
              << util::formatDuration(fault.duration) << ' '
              << chaos::faultKindName(fault.kind);
    if (fault.targetsNode())
      std::cout << " site " << topology.name(fault.node);
    if (fault.targetsLink())
      std::cout << " link " << topology.edgeName(fault.link);
    if (fault.lossRate > 0.0 && fault.lossRate < 1.0)
      std::cout << " loss " << util::formatFixed(fault.lossRate, 2);
    if (fault.latencyPenalty > 0)
      std::cout << " latency +" << util::formatDuration(fault.latencyPenalty);
    std::cout << '\n';
  }

  std::vector<chaos::DifferentialFlowSpec> flows;
  chaos::DifferentialFlowSpec spec;
  spec.source = args.getString("source", "NYC");
  spec.destination = args.getString("destination", "SJC");
  spec.scheme = routing::parseSchemeKind(args.getString("scheme", "targeted"));
  flows.push_back(spec);

  chaos::DifferentialParams params;
  params.recoveryEnabled = args.getBool("recovery", false);
  params.mcSamples = mcSamplesFlag(args, 4000);

  std::optional<telemetry::Telemetry> telemetry;
  if (telemetryRequested(args)) telemetry.emplace();
  const chaos::DifferentialResult result = chaos::runDifferential(
      topology, schedule, flows, params, telemetry ? &*telemetry : nullptr);
  if (telemetry) emitTelemetry(*telemetry, args);

  std::cout << "\nlive vs playback (per flow):\n";
  for (const chaos::DifferentialFlowResult& flow : result.flows) {
    std::cout << "  " << flow.spec.source << "->" << flow.spec.destination
              << " via " << routing::schemeName(flow.spec.scheme) << ":\n"
              << "    sent:                  " << flow.sent << '\n'
              << "    live unavailability:   "
              << util::formatPercent(flow.liveUnavailability, 3) << '\n'
              << "    predicted (playback):  "
              << util::formatPercent(flow.predictedUnavailability, 3) << '\n'
              << "    delta:                 "
              << util::formatFixed(flow.unavailabilityDelta() * 100.0, 3)
              << " pp (tolerance "
              << util::formatFixed(flow.tolerance() * 100.0, 3) << " pp, "
              << (flow.withinTolerance() ? "ok" : "EXCEEDED") << ")\n"
              << "    live cost:             "
              << util::formatFixed(flow.liveCost, 2) << " tx/pkt (model "
              << util::formatFixed(flow.predictedCost, 2) << ")\n";
  }
  std::cout << "invariants: " << result.invariantChecksRun << " checks, "
            << result.violations.size() << " violations\n";
  for (const chaos::InvariantViolation& violation : result.violations) {
    std::cout << "  VIOLATION t=" << util::formatDuration(violation.time)
              << ' ' << violation.invariant << ": " << violation.detail
              << '\n';
  }
  return result.passed() ? 0 : 1;
}

/// Runs one live daemon until the coordinator's Shutdown datagram stops
/// the loop. Normally exec'd by `dgnet fleet --processes`, which passes
/// every flag; usable by hand for ad-hoc fleets. Flows arrive as one
/// comma-joined --flows=ID:SRC:DST:SCHEME,... argument; the dissemination
/// graph of each is recomputed here (selectLiveGraphMask is deterministic,
/// so parent and children agree without shipping masks).
int cmdDaemon(const util::Config& args) {
  const trace::Topology topology =
      trace::Topology::fromFile(args.getString("topology"));
  const chaos::ChaosSchedule schedule =
      chaos::ChaosSchedule::load(args.getString("schedule"));
  schedule.validateAgainst(topology.graph());
  const double residualLoss = args.getDouble("residual-loss", 1e-4);

  live::DaemonConfig config;
  config.node = static_cast<graph::NodeId>(args.getInt("node", 0));
  config.port = static_cast<std::uint16_t>(args.getInt("port", 0));
  config.coordinatorPort =
      static_cast<std::uint16_t>(args.getInt("coordinator-port", 0));
  config.incarnation =
      static_cast<std::uint64_t>(args.getInt("incarnation", 1));
  config.recoveryEnabled = args.getBool("recovery", false);
  config.packetInterval =
      args.getInt("packet-interval-us", config.packetInterval);
  config.membership.heartbeatInterval =
      args.getInt("heartbeat-us", config.membership.heartbeatInterval);

  live::EventLoop loop;
  live::Daemon daemon(loop, topology.graph(), config);
  daemon.enableImpairment(schedule,
                          static_cast<std::uint64_t>(args.getInt("seed", 42)),
                          residualLoss);

  routing::SchemeParams schemeParams;
  schemeParams.deadline = args.getInt("deadline-us", schemeParams.deadline);
  for (const std::string& item : util::split(args.getString("flows"), ',')) {
    if (item.empty()) continue;
    const auto fields = util::split(item, ':');
    std::int64_t id = 0;
    if (fields.size() != 4 || !util::parseInt64(fields[0], id) || id < 0)
      throw std::runtime_error("daemon: bad --flows entry '" + item +
                               "' (want ID:SRC:DST:SCHEME)");
    live::LiveFlow flow;
    flow.id = static_cast<net::FlowId>(id);
    flow.source = topology.at(fields[1]);
    flow.destination = topology.at(fields[2]);
    flow.deadline = schemeParams.deadline;
    flow.graphMask = live::selectLiveGraphMask(
        topology, routing::parseSchemeKind(fields[3]), flow.source,
        flow.destination, schemeParams, residualLoss);
    daemon.addFlow(flow);
  }

  const auto portBase =
      static_cast<std::uint16_t>(args.getInt("port-base", 0));
  if (portBase != 0) {
    for (std::size_t j = 0; j < topology.siteCount(); ++j) {
      if (static_cast<graph::NodeId>(j) == config.node) continue;
      daemon.seedPeer(static_cast<graph::NodeId>(j),
                      static_cast<std::uint16_t>(portBase + 1 + j));
    }
  }

  std::optional<telemetry::Telemetry> telemetry;
  if (telemetryRequested(args)) {
    telemetry.emplace();
    // Live churn events carry loop (wall) time, not sim time.
    telemetry->trace.setTimeBase("wall");
    daemon.setTelemetry(&*telemetry);
  }

  daemon.start();
  loop.run();  // until the coordinator's Shutdown stops the loop
  daemon.stop();
  if (telemetry) {
    daemon.exportTelemetry(*telemetry);
    emitTelemetry(*telemetry, args);
  }
  return 0;
}

std::string selfExePath() {
  char buffer[4096];
  const ssize_t n = readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0)
    throw std::runtime_error("fleet: cannot resolve /proc/self/exe");
  return std::string(buffer, static_cast<std::size_t>(n));
}

int cmdFleet(const util::Config& args) {
  live::FleetParams params;
  params.topology = args.has("topology")
                        ? trace::Topology::fromFile(args.getString("topology"))
                        : trace::Topology::mesh5();

  if (args.has("schedule")) {
    params.schedule = chaos::ChaosSchedule::load(args.getString("schedule"));
  } else {
    chaos::ChaosScheduleParams sp;
    sp.seed = static_cast<std::uint64_t>(args.getInt("seed", 7));
    sp.faults = static_cast<int>(args.getInt("faults", 4));
    sp.horizon = util::seconds(args.getInt("seconds", 8));
    sp.intervalLength = util::seconds(args.getInt("interval_s", 1));
    // Live daemons do not crash mid-soak and run no monitoring plane, so
    // random soak schedules stick to link/site condition impairments.
    sp.nodeCrashWeight = 0.0;
    sp.monitorDelayWeight = 0.0;
    params.schedule = chaos::ChaosSchedule::random(params.topology, sp);
  }
  params.schedule.validateAgainst(params.topology.graph());
  if (args.has("record")) {
    params.schedule.save(args.getString("record"));
    std::cerr << "recorded schedule -> " << args.getString("record") << '\n';
  }

  if (args.has("flows")) {
    for (const std::string& item :
         util::split(args.getString("flows"), ',')) {
      if (item.empty()) continue;
      const auto fields = util::split(item, ':');
      if (fields.size() != 3)
        throw std::runtime_error("fleet: bad --flows entry '" + item +
                                 "' (want SRC:DST:SCHEME)");
      live::FleetFlowSpec spec;
      spec.source = fields[0];
      spec.destination = fields[1];
      spec.scheme = routing::parseSchemeKind(fields[2]);
      params.flows.push_back(spec);
    }
  } else {
    live::FleetFlowSpec spec;
    spec.source = args.getString("source", "NYC");
    spec.destination = args.getString("destination", "SJC");
    spec.scheme = routing::parseSchemeKind(
        args.getString("scheme", "static-two-disjoint"));
    params.flows.push_back(spec);
  }
  if (params.flows.empty())
    throw std::runtime_error("fleet: no flows configured");

  params.schemeParams.deadline =
      args.getInt("deadline-us", params.schemeParams.deadline);
  params.packetInterval =
      args.getInt("packet-interval-us", params.packetInterval);
  params.impairmentSeed =
      static_cast<std::uint64_t>(args.getInt("impairment-seed", 42));
  params.residualLoss = args.getDouble("residual-loss", params.residualLoss);
  params.recoveryEnabled = args.getBool("recovery", false);
  params.drain = args.getInt("drain-us", params.drain);
  params.mcSamples = mcSamplesFlag(args, params.mcSamples);
  params.playbackSeed = static_cast<std::uint64_t>(
      args.getInt("playback-seed", static_cast<std::int64_t>(
                                       params.playbackSeed)));
  params.portBase =
      static_cast<std::uint16_t>(args.getInt("port-base", params.portBase));
  params.workDir = args.getString("work-dir", params.workDir);

  const bool processes = args.getBool("processes", false);
  std::cout << "fleet: " << params.topology.siteCount() << " daemons ("
            << (processes ? "multi-process" : "in-process") << "), "
            << params.schedule.faults().size() << " faults over "
            << util::formatDuration(params.schedule.horizon()) << '\n';

  std::optional<telemetry::Telemetry> telemetry;
  if (telemetryRequested(args)) {
    telemetry.emplace();
    telemetry->trace.setTimeBase("wall");  // live churn events
  }

  live::FleetResult result;
  if (processes) {
    params.dgnetBinary = selfExePath();
    result =
        live::runFleetProcesses(params, telemetry ? &*telemetry : nullptr);
  } else {
    result =
        live::runFleetInProcess(params, telemetry ? &*telemetry : nullptr);
  }
  if (telemetry) emitTelemetry(*telemetry, args);

  std::cout << "converged: " << (result.converged ? "yes" : "NO")
            << "  collected: " << (result.completed ? "yes" : "NO") << '\n';

  std::cout << "\nlive vs playback (per flow):\n";
  for (const live::FleetFlowResult& flow : result.flows) {
    std::cout << "  " << flow.spec.source << "->" << flow.spec.destination
              << " via " << routing::schemeName(flow.spec.scheme) << ":\n"
              << "    sent:                  " << flow.sent << '\n'
              << "    delivered on time:     " << flow.deliveredOnTime
              << " (late " << flow.deliveredLate << ")\n"
              << "    live unavailability:   "
              << util::formatPercent(flow.liveUnavailability, 3) << '\n'
              << "    predicted (playback):  "
              << util::formatPercent(flow.predictedUnavailability, 3) << '\n'
              << "    delta:                 "
              << util::formatFixed(flow.unavailabilityDelta() * 100.0, 3)
              << " pp (tolerance "
              << util::formatFixed(flow.tolerance() * 100.0, 3) << " pp, "
              << (flow.withinTolerance() ? "ok" : "EXCEEDED") << ")\n"
              << "    live cost:             "
              << util::formatFixed(flow.liveCost, 2) << " tx/pkt (model "
              << util::formatFixed(flow.predictedCost, 2) << ")\n";
  }

  std::uint64_t sends = 0, receives = 0, drops = 0, nacks = 0;
  for (const auto& [node, counters] : result.nodeCounters) {
    sends += counters.socketSends;
    receives += counters.socketReceives;
    drops += counters.impairmentDrops;
    nacks += counters.nacksSent;
  }
  std::cout << "sockets: " << sends << " sends, " << receives
            << " receives, " << drops << " impairment drops, " << nacks
            << " nacks\n";
  return result.passed() ? 0 : 1;
}

/// Resolves the input file of a `dgnet trace` subcommand: --in=FILE or
/// the positional after the subcommand.
std::string traceStoreInput(const util::Config& args,
                            const std::vector<std::string>& positional) {
  if (args.has("in")) return args.getString("in");
  if (positional.size() >= 3) return positional[2];
  throw std::runtime_error("--in=FILE required");
}

int cmdTraceStore(const util::Config& args,
                  const std::vector<std::string>& positional) {
  if (positional.size() < 2) {
    std::cerr << "usage: dgnet trace <pack|info|verify|cat> --in=FILE ...\n";
    return 2;
  }
  const std::string& sub = positional[1];
  std::optional<telemetry::Telemetry> telemetry;
  if (telemetryRequested(args)) telemetry.emplace();
  telemetry::MetricsRegistry* metrics =
      telemetry ? &telemetry->metrics : nullptr;
  try {
    if (sub == "pack") {
      const std::string in = traceStoreInput(args, positional);
      if (!args.has("out")) {
        std::cerr << "trace pack: --out=FILE required\n";
        return 2;
      }
      const auto tr = store::loadAnyTrace(in, metrics);
      store::WriterOptions options;
      options.chunkIntervals = static_cast<std::uint32_t>(args.getInt(
          "chunk-intervals", store::kDefaultChunkIntervals));
      store::packTrace(tr, args.getString("out"), options, metrics);
      const auto reader = store::PackedTraceReader::open(args.getString("out"));
      std::cout << "packed " << in << " -> " << args.getString("out") << ": "
                << reader.info().fileBytes << " bytes, "
                << reader.info().chunkCount << " chunks, "
                << reader.info().recordCount << " deviation records\n";
    } else if (sub == "info") {
      auto reader = store::PackedTraceReader::open(
          traceStoreInput(args, positional), metrics);
      const store::PackedTraceInfo& info = reader.info();
      std::cout << "format:          dgtrace v" << info.version << '\n'
                << "file size:       " << info.fileBytes << " bytes\n"
                << "intervals:       " << info.intervalCount << " x "
                << util::formatDuration(info.intervalLength) << " = "
                << util::formatDuration(
                       info.intervalLength *
                       static_cast<util::SimTime>(info.intervalCount))
                << '\n'
                << "links:           " << info.edgeCount << '\n'
                << "chunks:          " << info.chunkCount << " x "
                << info.chunkIntervals << " intervals\n"
                << "records:         " << info.recordCount
                << " deviation records\n"
                << "fingerprint:     " << util::formatHex64(
                       reader.contentFingerprint()) << '\n';
      // Per-chunk layout from the footer index alone (no chunk decode):
      // where each chunk sits, what it covers, and how dense it is.
      for (std::uint64_t c = 0; c < info.chunkCount; ++c) {
        const auto geometry = reader.chunkGeometry(c);
        std::cout << "  chunk " << util::padRight(std::to_string(c) + ":", 7)
                  << "intervals [" << geometry.firstInterval << ", "
                  << geometry.firstInterval + geometry.intervals << ")  "
                  << geometry.recordCount << " records  "
                  << geometry.payloadBytes << " payload bytes  @ offset "
                  << geometry.offset << '\n';
      }
    } else if (sub == "verify") {
      auto reader = store::PackedTraceReader::open(
          traceStoreInput(args, positional), metrics);
      const auto report = reader.verify();
      std::cout << "ok: " << report.chunksVerified << " chunks, "
                << report.recordsDecoded << " records, "
                << reader.info().fileBytes << " bytes verified\n";
    } else if (sub == "cat") {
      const auto tr = store::loadPackedTrace(
          traceStoreInput(args, positional), metrics);
      writeOrPrint(args.getString("out", "-"), tr.toString());
    } else {
      std::cerr << "dgnet trace: unknown subcommand '" << sub
                << "' (want pack, info, verify or cat)\n";
      return 2;
    }
  } catch (const store::StoreError& e) {
    if (telemetry) emitTelemetry(*telemetry, args);
    std::cerr << "dgnet trace " << sub << ": " << e.what() << '\n';
    return store::storeErrorExitCode(e.kind());
  }
  if (telemetry) emitTelemetry(*telemetry, args);
  return 0;
}

void printUsage(std::ostream& out) {
  out << "usage: dgnet <command> [--key=value ...]\n"
         "\n"
         "commands:\n"
         "  topology   print the overlay topology (sites, links, latencies)\n"
         "  topo       topology-family tooling (gen, info); "
         "--family=mesh|ring|scale-free:...\n"
         "  gen-trace  generate a synthetic condition trace (text or packed)\n"
         "  inspect    summarize a trace: horizon, deviations, worst links\n"
         "  import     convert external CSV measurements into a trace\n"
         "  sweep      replay flows or groups x schemes over a trace\n"
         "  simulate   drive the packet-level overlay (forwarding + recovery)\n"
         "  graph      dissemination-graph tooling (dump as DOT/JSON)\n"
         "  chaos      differential chaos soak: live simulator vs playback\n"
         "  trace      packed-trace store tooling (pack, info, verify, cat)\n"
         "  daemon     run one live UDP overlay daemon (fleet child process)\n"
         "  fleet      run a localhost daemon fleet through a live chaos "
         "soak\n"
         "  help       print this summary\n"
         "\n"
         "see the header of tools/dgnet.cpp for per-command flags\n";
}

/// The flags each command reads. main rejects any other flag with exit 2
/// before the command runs or writes a file.
const std::map<std::string, std::vector<std::string>, std::less<>>&
commandFlags() {
  using Flags = std::vector<std::string>;
  const auto join = [](std::initializer_list<Flags> parts) {
    Flags all;
    for (const Flags& part : parts)
      all.insert(all.end(), part.begin(), part.end());
    return all;
  };
  const Flags telemetry = {"metrics-out", "metrics-format", "trace-out"};
  const Flags trace = {"topology", "trace", "days", "hours", "seed"};
  const Flags mcSamples = {"mc-samples", "mc_samples"};
  static const std::map<std::string, Flags, std::less<>> kFlags = {
      {"help", {}},
      {"topology", {"topology"}},
      {"topo", {"family", "out", "topology"}},
      {"gen-trace", {"topology", "days", "hours", "seed", "out", "csv",
                     "chunk-intervals"}},
      {"inspect", {"topology", "trace"}},
      {"import", {"topology", "csv", "out", "interval_s", "skip_unknown"}},
      {"simulate", join({trace, telemetry,
                         {"scheme", "source", "destination", "seconds"}})},
      {"sweep", join({trace, telemetry, mcSamples,
                      {"flows", "workload", "workload-file", "groups",
                       "group-workload", "group-workload-file",
                       "workload-out", "schemes", "threads", "memo-cache",
                       "deadline-us", "delivered-k", "per-group"}})},
      {"graph", join({trace,
                      {"interval", "staleness", "format", "out",
                       "deadline-us", "source", "destination", "scheme",
                       "group", "group-scheme"}})},
      {"chaos", join({telemetry, mcSamples,
                      {"topology", "schedule", "seed", "faults", "seconds",
                       "record", "compile-out", "source", "destination",
                       "scheme", "recovery"}})},
      {"trace", join({telemetry, {"in", "out", "chunk-intervals"}})},
      {"daemon", join({telemetry,
                       {"topology", "schedule", "residual-loss", "node",
                        "port", "port-base", "coordinator-port",
                        "incarnation", "recovery", "packet-interval-us",
                        "heartbeat-us", "seed", "deadline-us", "flows"}})},
      {"fleet", join({telemetry, mcSamples,
                      {"topology", "schedule", "seed", "faults", "seconds",
                       "interval_s", "record", "flows", "source",
                       "destination", "scheme", "deadline-us",
                       "packet-interval-us", "impairment-seed",
                       "residual-loss", "recovery", "drain-us",
                       "playback-seed", "port-base", "work-dir",
                       "processes"}})},
  };
  return kFlags;
}

}  // namespace

int main(int argc, char** argv) {
  // Accept both "--key=value" and "--key value". dgnet's only positional
  // argument is the leading command, so once it has been seen, a bare
  // "--key" followed by a non-flag token unambiguously means key=value.
  std::vector<std::string> normalized;
  normalized.reserve(static_cast<std::size_t>(argc));
  normalized.emplace_back(argv[0]);
  bool haveCommand = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!util::startsWith(arg, "--")) {
      haveCommand = true;
      normalized.push_back(std::move(arg));
      continue;
    }
    if (haveCommand && arg.find('=') == std::string::npos && i + 1 < argc &&
        !util::startsWith(argv[i + 1], "--")) {
      arg += '=';
      arg += argv[++i];
    }
    normalized.push_back(std::move(arg));
  }
  std::vector<const char*> normalizedPtrs;
  normalizedPtrs.reserve(normalized.size());
  for (const std::string& arg : normalized)
    normalizedPtrs.push_back(arg.c_str());

  util::Config args;
  std::vector<std::string> positional;
  args.applyArgs(static_cast<int>(normalizedPtrs.size()),
                 normalizedPtrs.data(), &positional);
  if (positional.empty()) {
    if (args.getBool("help", false)) {
      printUsage(std::cout);
      return 0;
    }
    printUsage(std::cerr);
    return 2;
  }
  const std::string& command = positional.front();
  try {
    const auto accepted = commandFlags().find(command);
    if (accepted != commandFlags().end()) {
      for (const std::string& key : args.keys()) {
        if (std::find(accepted->second.begin(), accepted->second.end(),
                      key) == accepted->second.end())
          throw UsageError("unknown flag --" + key);
      }
    }
    if (command == "help") {
      printUsage(std::cout);
      return 0;
    }
    if (command == "topology") return cmdTopology(args);
    if (command == "topo") return cmdTopo(args, positional);
    if (command == "gen-trace") return cmdGenTrace(args);
    if (command == "inspect") return cmdInspect(args);
    if (command == "import") return cmdImport(args);
    if (command == "sweep") return cmdSweep(args);
    if (command == "simulate") return cmdSimulate(args);
    if (command == "graph") return cmdGraph(args, positional);
    if (command == "chaos") return cmdChaos(args);
    if (command == "trace") return cmdTraceStore(args, positional);
    if (command == "daemon") return cmdDaemon(args);
    if (command == "fleet") return cmdFleet(args);
    std::cerr << "dgnet: unknown command '" << command << "'\n";
    printUsage(std::cerr);
    return 64;
  } catch (const UsageError& e) {
    std::cerr << "dgnet " << command << ": " << e.what() << '\n';
    printUsage(std::cerr);
    return 2;
  } catch (const store::StoreError& e) {
    // Store errors outside `dgnet trace` (e.g. a truncated --trace=FILE)
    // keep their distinct per-kind exit codes.
    std::cerr << "dgnet " << command << ": " << e.what() << '\n';
    return store::storeErrorExitCode(e.kind());
  } catch (const std::exception& e) {
    std::cerr << "dgnet " << command << ": " << e.what() << '\n';
    return 1;
  }
}
