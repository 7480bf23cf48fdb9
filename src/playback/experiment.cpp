#include "playback/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <stdexcept>
#include <thread>
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

/// Clamps and validates config.flowWindows against the trace geometry:
/// one [first, last) pair per flow, {0, intervalCount} for every flow
/// when no windows are configured. Throws std::invalid_argument on a
/// length mismatch or a window that clamps to empty.
std::vector<std::pair<std::size_t, std::size_t>> resolveWindows(
    const ExperimentConfig& config, std::size_t intervalCount) {
  std::vector<std::pair<std::size_t, std::size_t>> windows(
      config.flows.size(), {std::size_t{0}, intervalCount});
  if (config.flowWindows.empty()) return windows;
  if (config.flowWindows.size() != config.flows.size())
    throw std::invalid_argument(
        "flowWindows must be empty or parallel to flows");
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const std::size_t first =
        std::min(config.flowWindows[f].firstInterval, intervalCount);
    const std::size_t last =
        std::min(config.flowWindows[f].lastInterval, intervalCount);
    if (first >= last)
      throw std::invalid_argument("flowWindows: empty window for flow " +
                                  std::to_string(f));
    windows[f] = {first, last};
  }
  return windows;
}

void captureStages(const PlaybackEngine& engine, ExperimentResult& result) {
  const StageTimings& timings = engine.stageTimings();
  result.stages.decodeNs = timings.decodeNs.load(std::memory_order_relaxed);
  result.stages.mcNs = timings.mcNs.load(std::memory_order_relaxed);
  result.stages.memoNs = timings.memoNs.load(std::memory_order_relaxed);
  result.stages.mergeNs = timings.mergeNs.load(std::memory_order_relaxed);
}

/// Experiment-level counters recorded after the sequential telemetry
/// merge; identical in both runners so exports stay comparable.
void recordExperimentMetrics(telemetry::Telemetry& telemetry,
                             std::size_t jobs,
                             const ExperimentResult& result) {
  telemetry.metrics.counter("dg_playback_jobs_total").inc(jobs);
  telemetry::SummaryMetric& perJobUnavailable =
      telemetry.metrics.summary("dg_playback_job_unavailable_seconds");
  for (const FlowSchemeResult& r : result.perFlow)
    perJobUnavailable.observe(r.unavailableSeconds);
}

}  // namespace

std::size_t ReplayPlan::context(routing::DecisionMemo& memo,
                                routing::SchemeKind kind, routing::Flow flow,
                                const routing::SchemeParams& params) {
  const auto [it, added] =
      index_.emplace(memo.contextKey(kind, flow, params), contexts_.size());
  if (added) contexts_.push_back(Context{kind, flow, params, {}, {}});
  return it->second;
}

void ReplayPlan::seal() {
  replayed_.clear();
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    std::vector<std::size_t>& stops = contexts_[i].stops;
    if (stops.empty()) continue;
    std::sort(stops.begin(), stops.end());
    stops.erase(std::unique(stops.begin(), stops.end()), stops.end());
    replayed_.push_back(i);
  }
}

std::size_t ReplayPlan::checkpointCount() const {
  std::size_t count = 0;
  for (const std::size_t i : replayed_) count += contexts_[i].stops.size();
  return count;
}

const routing::DecisionCheckpoint& ReplayPlan::at(std::size_t context,
                                                  std::size_t first) const {
  const Context& c = contexts_[context];
  const auto it = std::lower_bound(c.stops.begin(), c.stops.end(), first);
  if (it == c.stops.end() || *it != first)
    throw std::logic_error("ReplayPlan::at: no checkpoint at this start");
  return c.checkpoints.at(static_cast<std::size_t>(it - c.stops.begin()));
}

// dgcheck: worker
ExperimentResult runExperiment(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               const ExperimentConfig& config,
                               telemetry::Telemetry* telemetry) {
  if (config.flows.empty() || config.schemes.empty())
    throw std::invalid_argument("runExperiment: empty flows or schemes");

  // Windowed jobs replay their decisions to the window start and score
  // from that checkpoint (runChunkPartial, same semantics as the packed
  // runner), which requires cursor mode.
  const bool windowed = !config.flowWindows.empty();
  PlaybackParams playback = config.playback;
  if (windowed) playback.conditionCursor = true;
  const PlaybackEngine engine(overlay, trace, playback);
  const std::vector<std::pair<std::size_t, std::size_t>> windows =
      resolveWindows(config, trace.intervalCount());
  const std::size_t schemeCount = config.schemes.size();
  const std::size_t jobs = config.flows.size() * schemeCount;

  ExperimentResult result;
  result.perFlow.resize(jobs);

  unsigned threadCount = config.threads != 0
                             ? config.threads
                             : std::thread::hardware_concurrency();
  threadCount = std::max(1u, std::min<unsigned>(threadCount,
                                                static_cast<unsigned>(jobs)));

  // One private Telemetry per job: workers never share an instrument, and
  // the sequential job-order merge below is what keeps exports
  // byte-identical across thread counts.
  std::vector<std::unique_ptr<telemetry::Telemetry>> jobTelemetry;
  if (telemetry != nullptr) {
    jobTelemetry.resize(jobs);
    for (auto& t : jobTelemetry)
      t = std::make_unique<telemetry::Telemetry>(telemetry->trace.capacity());
  }

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t job = next.fetch_add(1);
      if (job >= jobs) return;
      const std::size_t flowIndex = job / schemeCount;
      const std::size_t schemeIndex = job % schemeCount;
      telemetry::Telemetry* jobSink =
          telemetry != nullptr ? jobTelemetry[job].get() : nullptr;
      if (windowed) {
        const auto [first, last] = windows[flowIndex];
        RunPartial partial = engine.runChunkPartial(
            config.flows[flowIndex], config.schemes[schemeIndex],
            config.schemeParams, first, last, nullptr, nullptr, jobSink);
        result.perFlow[job] = engine.finalizePartial(
            config.flows[flowIndex], config.schemes[schemeIndex],
            std::move(partial));
      } else {
        result.perFlow[job] =
            engine.run(config.flows[flowIndex], config.schemes[schemeIndex],
                       config.schemeParams, jobSink);
      }
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

  if (telemetry != nullptr) {
    for (const auto& jobResult : jobTelemetry) telemetry->merge(*jobResult);
    recordExperimentMetrics(*telemetry, jobs, result);
  }

  captureStages(engine, result);
  summarizeSchemes(result, config);
  DG_LOG(Info) << "experiment complete: " << jobs << " runs";
  return result;
}

// dgcheck: worker
ExperimentResult runPackedExperiment(const graph::Graph& overlay,
                                     const std::string& packedPath,
                                     const ExperimentConfig& config,
                                     telemetry::Telemetry* telemetry) {
  if (config.flows.empty() || config.schemes.empty())
    throw std::invalid_argument(
        "runPackedExperiment: empty flows or schemes");

  store::PackedTraceReader reader = store::PackedTraceReader::open(packedPath);
  if (reader.info().intervalCount == 0 || reader.info().chunkCount == 0)
    throw std::invalid_argument("runPackedExperiment: empty trace");
  const trace::Trace trace = reader.readAll();

  // The chunk is the accumulation block: the per-job fold below then
  // reproduces a single-threaded blocked run bit for bit (see
  // PlaybackParams::accumBlockIntervals). The cursor mode is what
  // runChunkPartial requires.
  PlaybackParams playback = config.playback;
  playback.conditionCursor = true;
  playback.accumBlockIntervals = reader.info().chunkIntervals;
  const PlaybackEngine engine(overlay, trace, playback);

  ExperimentResult result;
  const bool useMemoCache =
      !config.memoCachePath.empty() && playback.decisionMemo;
  std::uint64_t fingerprint = 0;
  if (useMemoCache) {
    fingerprint = reader.contentFingerprint();
    result.memoCacheLoad = loadMemoCache(config.memoCachePath, fingerprint,
                                         engine.decisionMemoMutable());
    DG_LOG(Info) << "memo cache " << config.memoCachePath << ": "
                 << memoCacheLoadResultName(result.memoCacheLoad);
  }

  const std::size_t schemeCount = config.schemes.size();
  const std::size_t jobs = config.flows.size() * schemeCount;
  const std::vector<std::pair<std::size_t, std::size_t>> windows =
      resolveWindows(config,
                     static_cast<std::size_t>(reader.info().intervalCount));
  const std::size_t chunkCount =
      static_cast<std::size_t>(reader.info().chunkCount);
  const std::size_t chunkIntervals = reader.info().chunkIntervals;
  const std::size_t intervalCount =
      static_cast<std::size_t>(reader.info().intervalCount);
  const std::size_t tasks = jobs * chunkCount;

  result.perFlow.resize(jobs);
  std::vector<RunPartial> partials(tasks);

  unsigned threadCount = config.threads != 0
                             ? config.threads
                             : std::thread::hardware_concurrency();
  threadCount = std::max(
      1u, std::min<unsigned>(threadCount, static_cast<unsigned>(tasks)));

  std::vector<std::unique_ptr<telemetry::Telemetry>> taskTelemetry;
  if (telemetry != nullptr) {
    taskTelemetry.resize(tasks);
    for (auto& t : taskTelemetry)
      t = std::make_unique<telemetry::Telemetry>(telemetry->trace.capacity());
  }

  // Clamp each chunk to its flow's active window; chunks entirely outside
  // leave their partial empty (merging an empty partial is a no-op).
  // Accumulation blocks sit at absolute chunk boundaries, so the clamped
  // fold still reproduces the single-threaded blocked run over the window
  // -- and the range depends only on the task index, preserving thread
  // invariance.
  const auto taskRange = [&](std::size_t task) {
    const std::size_t chunk = task % chunkCount;
    const auto [windowFirst, windowLast] =
        windows[task / chunkCount / schemeCount];
    return std::pair{
        std::max(chunk * chunkIntervals, windowFirst),
        std::min({chunk * chunkIntervals + chunkIntervals, intervalCount,
                  windowLast})};
  };

  // Phase-1 plan: one decision context per job, checkpointed at every
  // mid-trace task start.
  ReplayPlan plan;
  std::vector<std::size_t> jobContext(jobs);
  for (std::size_t job = 0; job < jobs; ++job) {
    jobContext[job] = plan.context(
        engine.decisionMemoMutable(), config.schemes[job % schemeCount],
        config.flows[job / schemeCount], config.schemeParams);
  }
  for (std::size_t task = 0; task < tasks; ++task) {
    const auto [first, last] = taskRange(task);
    if (first > 0 && first < last)
      plan.addStop(jobContext[task / chunkCount], first);
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

    // Worker-private reader and cursor feeds: chunk decode state is never
    // shared across threads. Two sources because the decision cursor lags
    // the truth cursor by the view staleness, so near a chunk boundary
    // they sit in different chunks -- one shared source would thrash.
    store::PackedTraceReader workerReader =
        store::PackedTraceReader::open(packedPath);
    store::PackedConditionSource decisionSource(workerReader);
    store::PackedConditionSource truthSource(workerReader);
    for (;;) {
      const std::size_t task = next.fetch_add(1);
      if (task >= tasks) return;
      const std::size_t job = task / chunkCount;
      const auto [first, last] = taskRange(task);
      if (first >= last) continue;
      partials[task] = engine.runChunkPartial(
          config.flows[job / schemeCount], config.schemes[job % schemeCount],
          config.schemeParams, first, last,
          first > 0 ? &plan.at(jobContext[job], first) : nullptr,
          &decisionSource, &truthSource,
          telemetry != nullptr ? taskTelemetry[task].get() : nullptr);
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

  // Deterministic fold: each job's chunk partials in ascending chunk
  // order -- the same merge tree as the single-threaded blocked run.
  const std::int64_t mergeStart =
      playback.collectStageTimings ? util::nowNanos() : 0;
  for (std::size_t job = 0; job < jobs; ++job) {
    RunPartial total;
    for (std::size_t chunk = 0; chunk < chunkCount; ++chunk)
      total.merge(std::move(partials[job * chunkCount + chunk]));
    result.perFlow[job] = engine.finalizePartial(
        config.flows[job / schemeCount], config.schemes[job % schemeCount],
        std::move(total));
  }
  if (playback.collectStageTimings)
    engine.addStageMergeNs(
        static_cast<std::uint64_t>(util::nowNanos() - mergeStart));

  if (telemetry != nullptr) {
    for (const auto& taskResult : taskTelemetry)
      telemetry->merge(*taskResult);
    recordExperimentMetrics(*telemetry, jobs, result);
  }

  if (useMemoCache)
    saveMemoCache(config.memoCachePath, fingerprint, engine.decisionMemo());
  result.memoStats = engine.decisionMemo().stats();

  captureStages(engine, result);
  summarizeSchemes(result, config);
  DG_LOG(Info) << "packed experiment complete: " << jobs << " runs, "
               << chunkCount << " chunks, " << threadCount << " threads, "
               << plan.replayCount() << " contexts replayed, "
               << plan.checkpointCount() << " checkpoints";
  return result;
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
