#include "playback/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "store/reader.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"
#include "util/wall_clock.hpp"

namespace dg::playback {

namespace {

/// Per-scheme aggregation shared by both runners: flow-mean
/// unavailability/cost, gap coverage against the configured baseline and
/// optimal schemes, and cost relative to static two-disjoint-paths.
void summarizeSchemes(ExperimentResult& result,
                      const ExperimentConfig& config) {
  const std::size_t schemeCount = config.schemes.size();
  double baselineUnavailability = 0.0;
  double optimalUnavailability = 0.0;
  double twoDisjointCost = 0.0;
  bool haveTwoDisjoint = false;
  std::vector<SchemeSummary> summaries(schemeCount);
  for (std::size_t s = 0; s < schemeCount; ++s) {
    SchemeSummary& summary = summaries[s];
    summary.scheme = config.schemes[s];
    util::OnlineStats unavail;
    util::OnlineStats cost;
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const FlowSchemeResult& r = result.at(f, s, schemeCount);
      unavail.add(r.unavailability);
      cost.add(r.averageCost);
      summary.unavailableSeconds += r.unavailableSeconds;
      summary.problematicIntervals += r.problematicIntervals;
    }
    summary.unavailability = unavail.mean();
    summary.averageCost = cost.mean();
    if (summary.scheme == config.gapBaseline)
      baselineUnavailability = summary.unavailability;
    if (summary.scheme == config.gapOptimal)
      optimalUnavailability = summary.unavailability;
    if (summary.scheme == routing::SchemeKind::StaticTwoDisjoint) {
      twoDisjointCost = summary.averageCost;
      haveTwoDisjoint = true;
    }
  }

  const double gap = baselineUnavailability - optimalUnavailability;
  for (SchemeSummary& summary : summaries) {
    summary.gapCoverage =
        gap > 0 ? (baselineUnavailability - summary.unavailability) / gap
                : 0.0;
    summary.costVsTwoDisjoint =
        haveTwoDisjoint && twoDisjointCost > 0
            ? summary.averageCost / twoDisjointCost
            : 0.0;
  }
  result.summary = std::move(summaries);
}

/// Clamps and validates `windows` against the trace geometry: one
/// [first, last) pair per unit, {0, intervalCount} for every unit when no
/// windows are configured. Throws std::invalid_argument on a length
/// mismatch or a window that clamps to empty.
std::vector<std::pair<std::size_t, std::size_t>> resolveWindows(
    std::span<const FlowWindow> windows, std::size_t unitCount,
    std::size_t intervalCount) {
  std::vector<std::pair<std::size_t, std::size_t>> resolved(
      unitCount, {std::size_t{0}, intervalCount});
  if (windows.empty()) return resolved;
  if (windows.size() != unitCount)
    throw std::invalid_argument("windows must be empty or parallel to units");
  for (std::size_t u = 0; u < unitCount; ++u) {
    const std::size_t first = std::min(windows[u].firstInterval, intervalCount);
    const std::size_t last = std::min(windows[u].lastInterval, intervalCount);
    if (first >= last)
      throw std::invalid_argument("empty window for unit " +
                                  std::to_string(u));
    resolved[u] = {first, last};
  }
  return resolved;
}

/// The decision contexts of a sweep whose tasks start mid-trace, each
/// with the ascending task starts to checkpoint. Phase 1 replays every
/// context once (DecisionReplay::run, which replays each stop from the
/// context's last history-free decision) and phase-2 tasks restore their
/// start state from here, so a context shared by several tasks -- the
/// chunks of one job, or groups with a common source-receiver pair -- is
/// replayed once per sweep instead of once per task. Checkpoints are pure
/// functions of (context, stop), so results do not depend on which worker
/// replays which context.
class ReplayPlan {
 public:
  struct Context {
    routing::SchemeKind kind{};
    routing::Flow flow;
    routing::SchemeParams params;
    std::vector<std::size_t> stops;
    std::vector<routing::DecisionCheckpoint> checkpoints;
  };

  /// The index of context (kind, flow, params), added on first sight.
  /// Contexts are identified by memo.contextKey, which interns exactly.
  std::size_t context(routing::DecisionMemo& memo, routing::SchemeKind kind,
                      routing::Flow flow,
                      const routing::SchemeParams& params) {
    const auto [it, added] =
        index_.emplace(memo.contextKey(kind, flow, params), contexts_.size());
    if (added) contexts_.push_back(Context{kind, flow, params, {}, {}});
    return it->second;
  }
  /// Notes a task of `context` that starts at first > 0.
  void addStop(std::size_t context, std::size_t first) {
    contexts_[context].stops.push_back(first);
  }
  /// Sorts and dedupes every context's stops and lists the contexts some
  /// task starts mid-trace in. Call once, after the last addStop().
  void seal() {
    for (std::size_t i = 0; i < contexts_.size(); ++i) {
      std::vector<std::size_t>& stops = contexts_[i].stops;
      if (stops.empty()) continue;
      std::sort(stops.begin(), stops.end());
      stops.erase(std::unique(stops.begin(), stops.end()), stops.end());
      replayed_.push_back(i);
    }
  }

  std::size_t replayCount() const { return replayed_.size(); }
  /// The i-th context to replay (phase 1 fills its checkpoints).
  Context& replayContext(std::size_t i) { return contexts_[replayed_[i]]; }

  /// The checkpoint of `context` at `first`, which must have been added.
  const routing::DecisionCheckpoint& at(std::size_t context,
                                        std::size_t first) const {
    const Context& c = contexts_[context];
    const auto it = std::lower_bound(c.stops.begin(), c.stops.end(), first);
    return c.checkpoints.at(static_cast<std::size_t>(it - c.stops.begin()));
  }

 private:
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<Context> contexts_;
  std::vector<std::size_t> replayed_;
};

std::vector<mcast::Group> oneReceiverGroups(
    const std::vector<routing::Flow>& flows) {
  std::vector<mcast::Group> units;
  units.reserve(flows.size());
  for (const routing::Flow flow : flows)
    units.push_back(mcast::oneReceiverGroup(flow));
  return units;
}

std::vector<mcast::GroupSchemeKind> groupEquivalents(
    const std::vector<routing::SchemeKind>& schemes) {
  std::vector<mcast::GroupSchemeKind> kinds;
  kinds.reserve(schemes.size());
  for (const routing::SchemeKind kind : schemes)
    kinds.push_back(mcast::groupEquivalent(kind));
  return kinds;
}

/// runExperiment and runPackedExperiment: the flows as one-receiver
/// groups through the scheduler.
ExperimentResult runFlowSweep(const graph::Graph& overlay,
                              const trace::Trace* trace,
                              const std::string& packedPath,
                              const ExperimentConfig& config,
                              telemetry::Telemetry* telemetry) {
  const std::vector<mcast::Group> units = oneReceiverGroups(config.flows);
  const std::vector<mcast::GroupSchemeKind> kinds =
      groupEquivalents(config.schemes);
  SweepSpec spec;
  spec.units = units;
  spec.schemes = kinds;
  spec.schemeParams = config.schemeParams;
  spec.windows = config.flowWindows;
  spec.playback.base = config.playback;
  spec.threads = config.threads;
  spec.flowUnits = true;
  spec.memoCachePath = config.memoCachePath;

  const std::size_t schemeCount = config.schemes.size();
  ExperimentResult result;
  result.perFlow.resize(config.flows.size() * schemeCount);
  const SweepStats stats = runSweep(
      overlay, trace, packedPath, spec, telemetry,
      [&](const PlaybackEngine& engine, std::size_t job, RunPartial&& total) {
        result.perFlow[job] = engine.finalizePartial(
            config.flows[job / schemeCount], config.schemes[job % schemeCount],
            std::move(total));
      });
  result.memoCacheLoad = stats.memoCacheLoad;
  result.memoStats = stats.memoStats;
  result.stages = stats.stages;
  summarizeSchemes(result, config);
  return result;
}

}  // namespace

// dgcheck: worker
SweepStats runSweep(
    const graph::Graph& overlay, const trace::Trace* trace,
    const std::string& packedPath, const SweepSpec& spec,
    telemetry::Telemetry* telemetry,
    const std::function<void(const PlaybackEngine& engine, std::size_t job,
                             RunPartial&& total)>& finish) {
  if (spec.units.empty() || spec.schemes.empty())
    throw std::invalid_argument("sweep: empty units or schemes");

  // Packed sweeps score from the container and split jobs at its chunks;
  // the chunk is the accumulation block, so the per-job fold below
  // reproduces a single-threaded blocked run bit for bit. The cursor mode
  // is what worker-private condition sources require.
  const bool packed = !packedPath.empty();
  std::optional<store::PackedTraceReader> reader;
  std::optional<trace::Trace> packedTrace;
  GroupPlaybackParams playback = spec.playback;
  std::size_t chunkIntervals = 0;
  if (packed) {
    reader.emplace(store::PackedTraceReader::open(packedPath));
    if (reader->info().intervalCount == 0 || reader->info().chunkCount == 0)
      throw std::invalid_argument("sweep: empty packed trace");
    packedTrace.emplace(reader->readAll());
    trace = &*packedTrace;
    chunkIntervals = reader->info().chunkIntervals;
    playback.base.conditionCursor = true;
    playback.base.accumBlockIntervals = chunkIntervals;
  }
  const std::size_t intervalCount = trace->intervalCount();
  if (!packed) chunkIntervals = std::max<std::size_t>(intervalCount, 1);
  const std::size_t chunkCount =
      (intervalCount + chunkIntervals - 1) / chunkIntervals;
  const PlaybackEngine engine(overlay, *trace, playback.base,
                              playback.deliveredK);

  SweepStats stats;
  const bool useMemoCache = packed && !spec.memoCachePath.empty();
  std::uint64_t fingerprint = 0;
  if (useMemoCache) {
    fingerprint = reader->contentFingerprint();
    stats.memoCacheLoad = loadMemoCache(spec.memoCachePath, fingerprint,
                                        engine.decisionMemoMutable());
    DG_LOG(Info) << "memo cache " << spec.memoCachePath << ": "
                 << memoCacheLoadResultName(stats.memoCacheLoad);
  }

  const std::size_t schemeCount = spec.schemes.size();
  const std::size_t jobs = spec.units.size() * schemeCount;
  const std::size_t tasks = jobs * chunkCount;
  const std::vector<std::pair<std::size_t, std::size_t>> windows =
      resolveWindows(spec.windows, spec.units.size(), intervalCount);
  std::vector<RunPartial> partials(tasks);

  unsigned threadCount = spec.threads != 0
                             ? spec.threads
                             : std::thread::hardware_concurrency();
  threadCount = std::max(
      1u, std::min<unsigned>(threadCount, static_cast<unsigned>(tasks)));

  // One private Telemetry per task: workers never share an instrument, and
  // the sequential task-order merge below is what keeps exports
  // byte-identical across thread counts.
  std::vector<std::unique_ptr<telemetry::Telemetry>> taskTelemetry;
  if (telemetry != nullptr) {
    taskTelemetry.resize(tasks);
    for (auto& t : taskTelemetry)
      t = std::make_unique<telemetry::Telemetry>(telemetry->trace.capacity());
  }

  // Each chunk clamped to its unit's active window; chunks entirely
  // outside leave their partial empty (merging an empty partial is a
  // no-op). Accumulation blocks sit at absolute chunk boundaries, so the
  // clamped fold still reproduces the single-threaded blocked run over
  // the window -- and the range depends only on the task index,
  // preserving thread invariance.
  const auto taskRange = [&](std::size_t task) {
    const std::size_t chunk = task % chunkCount;
    const auto [windowFirst, windowLast] =
        windows[task / chunkCount / schemeCount];
    return std::pair{
        std::max(chunk * chunkIntervals, windowFirst),
        std::min({chunk * chunkIntervals + chunkIntervals, intervalCount,
                  windowLast})};
  };

  // Phase-1 plan: one decision context per receiver of each adaptive job
  // -- its unicast equivalent for source->receiver -- so jobs sharing a
  // source-receiver pair share one replay. Static kinds carry no decision
  // state and need none.
  ReplayPlan plan;
  std::vector<std::vector<std::size_t>> jobContexts(jobs);
  for (std::size_t job = 0; job < jobs; ++job) {
    const mcast::Group& unit = spec.units[job / schemeCount];
    const mcast::GroupSchemeKind kind = spec.schemes[job % schemeCount];
    if (!mcast::isAdaptive(kind)) continue;
    for (std::size_t i = 0; i < unit.receivers.size(); ++i) {
      jobContexts[job].push_back(plan.context(
          engine.decisionMemoMutable(), mcast::unicastEquivalent(kind),
          mcast::receiverFlow(unit, i),
          mcast::receiverSchemeParams(unit, i, spec.schemeParams)));
    }
  }
  for (std::size_t task = 0; task < tasks; ++task) {
    const auto [first, last] = taskRange(task);
    if (first == 0 || first >= last) continue;
    for (const std::size_t context : jobContexts[task / chunkCount])
      plan.addStop(context, first);
  }
  plan.seal();

  std::atomic<std::size_t> nextContext{0};
  std::atomic<std::size_t> next{0};
  std::barrier phases(static_cast<std::ptrdiff_t>(threadCount));
  const auto worker = [&] {
    for (std::size_t i = nextContext++; i < plan.replayCount();
         i = nextContext++) {
      ReplayPlan::Context& c = plan.replayContext(i);
      c.checkpoints =
          engine.replayCheckpoints(c.kind, c.flow, c.params, c.stops);
    }
    phases.arrive_and_wait();

    // Packed: a worker-private reader and cursor feeds, so chunk decode
    // state is never shared across threads. Two sources because the
    // decision cursor lags the truth cursor by the view staleness, so
    // near a chunk boundary they sit in different chunks -- one shared
    // source would thrash.
    std::optional<store::PackedTraceReader> workerReader;
    std::optional<store::PackedConditionSource> decisionSource;
    std::optional<store::PackedConditionSource> truthSource;
    if (packed) {
      workerReader.emplace(store::PackedTraceReader::open(packedPath));
      decisionSource.emplace(*workerReader);
      truthSource.emplace(*workerReader);
    }
    std::vector<const routing::DecisionCheckpoint*> starts;
    for (;;) {
      const std::size_t task = next.fetch_add(1);
      if (task >= tasks) return;
      const std::size_t job = task / chunkCount;
      const auto [first, last] = taskRange(task);
      if (first >= last) continue;
      starts.clear();
      if (first > 0) {
        for (const std::size_t context : jobContexts[job])
          starts.push_back(&plan.at(context, first));
      }
      const mcast::Group& unit = spec.units[job / schemeCount];
      const mcast::GroupSchemeKind kind = spec.schemes[job % schemeCount];
      trace::ConditionSource* decision =
          packed ? &*decisionSource : nullptr;
      trace::ConditionSource* truth = packed ? &*truthSource : nullptr;
      telemetry::Telemetry* sink =
          telemetry != nullptr ? taskTelemetry[task].get() : nullptr;
      partials[task] =
          spec.flowUnits
              ? engine.runChunkPartial(
                    mcast::receiverFlow(unit, 0),
                    mcast::unicastEquivalent(kind), spec.schemeParams, first,
                    last, starts.empty() ? nullptr : starts[0], decision,
                    truth, sink)
              : engine.runChunkPartial(unit, kind, spec.schemeParams, first,
                                       last, starts, decision, truth, sink);
    }
  };
  if (threadCount == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(threadCount);
    for (unsigned i = 0; i < threadCount; ++i) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }

  for (const RunPartial& partial : partials)
    stats.delivery += partial.deliveryWork;

  // Deterministic fold: each job's chunk partials in ascending chunk
  // order -- the same merge tree as the single-threaded blocked run.
  const std::int64_t mergeStart =
      playback.base.collectStageTimings ? util::nowNanos() : 0;
  std::vector<double> jobUnavailableSeconds(jobs);
  for (std::size_t job = 0; job < jobs; ++job) {
    RunPartial total;
    for (std::size_t chunk = 0; chunk < chunkCount; ++chunk)
      total.merge(std::move(partials[job * chunkCount + chunk]));
    jobUnavailableSeconds[job] = total.unavailableAllSeconds;
    finish(engine, job, std::move(total));
  }
  if (playback.base.collectStageTimings)
    engine.addStageMergeNs(
        static_cast<std::uint64_t>(util::nowNanos() - mergeStart));

  if (telemetry != nullptr) {
    for (const auto& taskResult : taskTelemetry)
      telemetry->merge(*taskResult);
    // Runner-level metrics, recorded after the sequential merge.
    const char* prefix = spec.flowUnits ? "dg_playback" : "dg_mcast";
    telemetry->metrics.counter(std::string(prefix) + "_jobs_total")
        .inc(jobs);
    telemetry::SummaryMetric& perJobUnavailable = telemetry->metrics.summary(
        std::string(prefix) + "_job_unavailable_seconds");
    for (const double seconds : jobUnavailableSeconds)
      perJobUnavailable.observe(seconds);
  }

  if (useMemoCache)
    saveMemoCache(spec.memoCachePath, fingerprint, engine.decisionMemo());
  stats.memoStats = engine.decisionMemo().stats();
  const StageTimings& timings = engine.stageTimings();
  stats.stages.decodeNs = timings.decodeNs.load(std::memory_order_relaxed);
  stats.stages.mcNs = timings.mcNs.load(std::memory_order_relaxed);
  stats.stages.evalNs = timings.evalNs.load(std::memory_order_relaxed);
  stats.stages.memoNs = timings.memoNs.load(std::memory_order_relaxed);
  stats.stages.mergeNs = timings.mergeNs.load(std::memory_order_relaxed);

  stats.replay = engine.replayWork();

  DG_LOG(Info) << "sweep complete: " << jobs << " runs, " << chunkCount
               << " chunks, " << threadCount << " threads, "
               << plan.replayCount() << " contexts replayed ("
               << stats.replay.decisions << " decisions over "
               << stats.replay.intervals << " intervals), "
               << stats.delivery.dijkstraRuns << " verdict Dijkstra runs, "
               << stats.delivery.inferredVerdicts << " verdicts inferred";
  return stats;
}

ExperimentResult runExperiment(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               const ExperimentConfig& config,
                               telemetry::Telemetry* telemetry) {
  return runFlowSweep(overlay, &trace, "", config, telemetry);
}

ExperimentResult runPackedExperiment(const graph::Graph& overlay,
                                     const std::string& packedPath,
                                     const ExperimentConfig& config,
                                     telemetry::Telemetry* telemetry) {
  return runFlowSweep(overlay, nullptr, packedPath, config, telemetry);
}

std::vector<routing::Flow> transcontinentalFlows(
    const trace::Topology& topology) {
  const std::vector<std::pair<const char*, const char*>> pairs = {
      {"NYC", "SJC"}, {"NYC", "LAX"}, {"JHU", "SEA"}, {"JHU", "SJC"},
      {"WAS", "LAX"}, {"WAS", "SEA"}, {"ATL", "SJC"}, {"ATL", "SEA"},
  };
  std::vector<routing::Flow> flows;
  flows.reserve(pairs.size() * 2);
  for (const auto& [east, west] : pairs) {
    const graph::NodeId e = topology.at(east);
    const graph::NodeId w = topology.at(west);
    flows.push_back(routing::Flow{e, w});
    flows.push_back(routing::Flow{w, e});
  }
  return flows;
}

}  // namespace dg::playback
