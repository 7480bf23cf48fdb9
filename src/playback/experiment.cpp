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

/// The decision contexts of a sweep -- (unicast equivalent,
/// source->receiver, receiver params) for every receiver of an adaptive
/// job -- each with the windows its jobs score. Phase 1 decides every
/// context once over its windows (DecisionReplay::run, which starts each
/// window from the context's last history-free decision) and phase-2
/// tasks read the timelines, so a context shared by several tasks -- the
/// chunks of one job, or groups with a common source-receiver pair -- is
/// decided once per sweep instead of once per task. Timelines are pure
/// functions of (context, windows), so results do not depend on which
/// worker replays which context.
class ReplayPlan {
 public:
  struct Context {
    routing::SchemeKind kind{};
    routing::Flow flow;
    routing::SchemeParams params;
    std::vector<IntervalWindow> windows;
    DecisionTimeline timeline;
  };

  /// The index of context (kind, flow, params), added on first sight.
  /// Contexts are identified by memo.contextKey, which interns exactly --
  /// and interning every context here, before the workers start, is what
  /// lets phase 1 use the memo without a lock.
  std::size_t context(routing::DecisionMemo& memo, routing::SchemeKind kind,
                      routing::Flow flow,
                      const routing::SchemeParams& params) {
    const auto [it, added] =
        index_.emplace(memo.contextKey(kind, flow, params), contexts_.size());
    if (added) contexts_.push_back(Context{kind, flow, params, {}, {}});
    return it->second;
  }
  /// Notes a job of `context` that scores `window`.
  void addWindow(std::size_t context, IntervalWindow window) {
    contexts_[context].windows.push_back(window);
  }
  /// Sorts and merges every context's windows and orders the contexts for
  /// phase 1: every dynamic-two-disjoint context first (stage 1), because
  /// the targeted contexts of the same flows read their memo tables
  /// (stage 2). Call once, after the last addWindow().
  void seal() {
    for (std::size_t i = 0; i < contexts_.size(); ++i) {
      std::vector<IntervalWindow>& windows = contexts_[i].windows;
      std::sort(windows.begin(), windows.end());
      std::size_t kept = 0;
      for (const IntervalWindow& w : windows) {
        if (kept > 0 && w.first <= windows[kept - 1].second) {
          windows[kept - 1].second = std::max(windows[kept - 1].second,
                                              w.second);
        } else {
          windows[kept++] = w;
        }
      }
      windows.resize(kept);
    }
    for (const bool first : {true, false}) {
      for (std::size_t i = 0; i < contexts_.size(); ++i) {
        if ((contexts_[i].kind == routing::SchemeKind::DynamicTwoDisjoint) ==
            first)
          order_.push_back(i);
      }
      if (first) firstStage_ = order_.size();
    }
  }

  std::size_t size() const { return contexts_.size(); }
  /// Contexts [0, firstStage()) of the phase-1 order run before the rest.
  std::size_t firstStage() const { return firstStage_; }
  /// The i-th context of the phase-1 order.
  Context& ordered(std::size_t i) { return contexts_[order_[i]]; }
  const DecisionTimeline* timeline(std::size_t context) const {
    return &contexts_[context].timeline;
  }

 private:
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<Context> contexts_;
  std::vector<std::size_t> order_;
  std::size_t firstStage_ = 0;
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
  result.replay = stats.replay;
  result.delivery = stats.delivery;
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

  // Packed sweeps decode the container once (readAll() CRC-checks every
  // chunk) and split jobs at its chunks; the chunk is the accumulation
  // block, so the per-job fold below reproduces a single-threaded blocked
  // run bit for bit.
  const bool packed = !packedPath.empty();
  std::optional<trace::Trace> packedTrace;
  GroupPlaybackParams playback = spec.playback;
  std::size_t chunkIntervals = 0;
  std::uint64_t fingerprint = 0;
  if (packed) {
    store::PackedTraceReader reader =
        store::PackedTraceReader::open(packedPath);
    if (reader.info().intervalCount == 0 || reader.info().chunkCount == 0)
      throw std::invalid_argument("sweep: empty packed trace");
    packedTrace.emplace(reader.readAll());
    trace = &*packedTrace;
    chunkIntervals = reader.info().chunkIntervals;
    fingerprint = reader.contentFingerprint();
    playback.base.conditionCursor = true;
    playback.base.accumBlockIntervals = chunkIntervals;
  }
  const std::size_t intervalCount = trace->intervalCount();
  if (!packed) chunkIntervals = std::max<std::size_t>(intervalCount, 1);
  const std::size_t chunkCount =
      (intervalCount + chunkIntervals - 1) / chunkIntervals;
  const PlaybackEngine engine(overlay, *trace, playback.base,
                              playback.deliveredK);

  // The sweep's decision memo. Phase 1 gives each context's table one
  // owner (see ReplayPlan), so it takes no lock.
  routing::DecisionMemo memo;
  SweepStats stats;
  const bool useMemoCache = packed && !spec.memoCachePath.empty();
  if (useMemoCache) {
    stats.memoCacheLoad =
        loadMemoCache(spec.memoCachePath, fingerprint, memo);
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
  // source-receiver pair share one timeline. Static jobs decide once, at
  // initialize(), into a frozen graph.
  ReplayPlan plan;
  std::vector<std::vector<std::size_t>> jobContexts(jobs);
  std::vector<std::size_t> staticJobs;
  for (std::size_t job = 0; job < jobs; ++job) {
    const std::size_t u = job / schemeCount;
    const mcast::Group& unit = spec.units[u];
    const mcast::GroupSchemeKind kind = spec.schemes[job % schemeCount];
    if (!mcast::isAdaptive(kind)) {
      staticJobs.push_back(job);
      continue;
    }
    for (std::size_t i = 0; i < unit.receivers.size(); ++i) {
      const std::size_t context = plan.context(
          memo, mcast::unicastEquivalent(kind),
          mcast::receiverFlow(unit, i),
          mcast::receiverSchemeParams(unit, i, spec.schemeParams));
      plan.addWindow(context, windows[u]);
      jobContexts[job].push_back(context);
    }
  }
  plan.seal();
  std::vector<std::vector<const DecisionTimeline*>> jobTimelines(jobs);
  for (std::size_t job = 0; job < jobs; ++job) {
    for (const std::size_t context : jobContexts[job])
      jobTimelines[job].push_back(plan.timeline(context));
  }
  std::vector<std::optional<graph::DisseminationGraph>> frozen(jobs);

  const std::size_t laterContexts = plan.size() - plan.firstStage();
  std::atomic<std::size_t> nextFirst{0};
  std::atomic<std::size_t> nextLater{0};
  std::atomic<std::size_t> next{0};
  std::barrier phases(static_cast<std::ptrdiff_t>(threadCount));
  const auto decide = [&](ReplayPlan::Context& c) {
    c.timeline =
        engine.replayTimeline(c.kind, c.flow, c.params, &memo, c.windows);
  };
  const auto worker = [&] {
    // Phase 1, stage 1: the dynamic-two-disjoint contexts.
    for (std::size_t i = nextFirst++; i < plan.firstStage(); i = nextFirst++)
      decide(plan.ordered(i));
    phases.arrive_and_wait();
    // Stage 2: every other context, then the static jobs' graphs.
    for (std::size_t i = nextLater++; i < laterContexts + staticJobs.size();
         i = nextLater++) {
      if (i < laterContexts) {
        decide(plan.ordered(plan.firstStage() + i));
        continue;
      }
      const std::size_t job = staticJobs[i - laterContexts];
      frozen[job].emplace(engine.frozenGraph(spec.units[job / schemeCount],
                                             spec.schemes[job % schemeCount],
                                             spec.schemeParams));
    }
    phases.arrive_and_wait();

    // Phase 2: score. One evaluator workspace per worker: its lane-jump
    // polynomials and pattern table are built once, not once per task.
    DeliveryWorkspace workspace;
    for (;;) {
      const std::size_t task = next.fetch_add(1);
      if (task >= tasks) return;
      const std::size_t job = task / chunkCount;
      const auto [first, last] = taskRange(task);
      if (first >= last) continue;
      const mcast::Group& unit = spec.units[job / schemeCount];
      const mcast::GroupSchemeKind kind = spec.schemes[job % schemeCount];
      const UnitDecisions decisions{
          jobTimelines[job], frozen[job] ? &*frozen[job] : nullptr};
      telemetry::Telemetry* sink =
          telemetry != nullptr ? taskTelemetry[task].get() : nullptr;
      partials[task] =
          spec.flowUnits
              ? engine.runChunkPartial(mcast::receiverFlow(unit, 0),
                                       mcast::unicastEquivalent(kind), first,
                                       last, decisions, sink, &workspace)
              : engine.runChunkPartial(unit, kind, first, last, decisions,
                                       sink, &workspace);
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
    std::vector<const telemetry::Telemetry*> taskResults;
    taskResults.reserve(tasks);
    for (const auto& taskResult : taskTelemetry)
      taskResults.push_back(taskResult.get());
    telemetry->merge(taskResults);
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
    saveMemoCache(spec.memoCachePath, fingerprint, memo);
  stats.memoStats = memo.stats();
  const StageTimings& timings = engine.stageTimings();
  stats.stages.decodeNs = timings.decodeNs.load(std::memory_order_relaxed);
  stats.stages.mcNs = timings.mcNs.load(std::memory_order_relaxed);
  stats.stages.evalNs = timings.evalNs.load(std::memory_order_relaxed);
  stats.stages.memoNs = timings.memoNs.load(std::memory_order_relaxed);
  stats.stages.mergeNs = timings.mergeNs.load(std::memory_order_relaxed);

  stats.replay = engine.replayWork();

  DG_LOG(Info) << "sweep complete: " << jobs << " runs, " << chunkCount
               << " chunks, " << threadCount << " threads, " << plan.size()
               << " contexts decided (" << stats.replay.decisions
               << " decisions over " << stats.replay.intervals
               << " intervals; memo " << stats.memoStats.decisionHits
               << " hits / " << stats.memoStats.decisionMisses
               << " misses), " << stats.delivery.dijkstraRuns
               << " verdict Dijkstra runs, " << stats.delivery.inferredVerdicts
               << " verdicts inferred";
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
