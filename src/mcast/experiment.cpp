#include "mcast/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "playback/experiment.hpp"
#include "store/reader.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace dg::mcast {

namespace {

/// Per-scheme aggregation shared by both runners.
void summarizeSchemes(GroupExperimentResult& result,
                      const GroupExperimentConfig& config) {
  const std::size_t schemeCount = config.schemes.size();
  std::vector<GroupSchemeSummary> summaries(schemeCount);
  for (std::size_t s = 0; s < schemeCount; ++s) {
    GroupSchemeSummary& summary = summaries[s];
    summary.scheme = config.schemes[s];
    util::OnlineStats unavailAll;
    util::OnlineStats unavailK;
    util::OnlineStats cost;
    for (std::size_t g = 0; g < config.groups.size(); ++g) {
      const GroupSchemeResult& r = result.at(g, s, schemeCount);
      unavailAll.add(r.unavailabilityAll);
      unavailK.add(r.unavailabilityK);
      cost.add(r.averageCost);
      summary.unavailableAllSeconds += r.unavailableAllSeconds;
      summary.problematicIntervals += r.problematicIntervals;
      for (const GroupReceiverResult& receiver : r.receivers) {
        summary.worstReceiverUnavailability = std::max(
            summary.worstReceiverUnavailability, receiver.unavailability);
      }
    }
    summary.unavailabilityAll = unavailAll.mean();
    summary.unavailabilityK = unavailK.mean();
    summary.averageCost = cost.mean();
  }
  result.summary = std::move(summaries);
}

std::vector<std::pair<std::size_t, std::size_t>> resolveWindows(
    const GroupExperimentConfig& config, std::size_t intervalCount) {
  std::vector<std::pair<std::size_t, std::size_t>> windows(
      config.groups.size(), {std::size_t{0}, intervalCount});
  if (config.groupWindows.empty()) return windows;
  if (config.groupWindows.size() != config.groups.size())
    throw std::invalid_argument(
        "groupWindows must be empty or parallel to groups");
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    const std::size_t first =
        std::min(config.groupWindows[g].firstInterval, intervalCount);
    const std::size_t last =
        std::min(config.groupWindows[g].lastInterval, intervalCount);
    if (first >= last)
      throw std::invalid_argument("groupWindows: empty window for group " +
                                  std::to_string(g));
    windows[g] = {first, last};
  }
  return windows;
}

/// Experiment-level counters recorded after the sequential telemetry
/// merge; mirrors the unicast runners' discipline.
void recordExperimentMetrics(telemetry::Telemetry& telemetry,
                             std::size_t jobs,
                             const GroupExperimentResult& result) {
  telemetry.metrics.counter("dg_mcast_jobs_total").inc(jobs);
  telemetry::SummaryMetric& perJobUnavailable =
      telemetry.metrics.summary("dg_mcast_job_unavailable_seconds");
  for (const GroupSchemeResult& r : result.perGroup)
    perJobUnavailable.observe(r.unavailableAllSeconds);
}

}  // namespace

// dgcheck: worker
GroupExperimentResult runGroupExperiment(const graph::Graph& overlay,
                                         const trace::Trace& trace,
                                         const GroupExperimentConfig& config,
                                         telemetry::Telemetry* telemetry) {
  if (config.groups.empty() || config.schemes.empty())
    throw std::invalid_argument("runGroupExperiment: empty groups or schemes");

  const bool windowed = !config.groupWindows.empty();
  GroupPlaybackParams playback = config.playback;
  if (windowed) playback.base.conditionCursor = true;
  const GroupPlaybackEngine engine(overlay, trace, playback);
  const std::vector<std::pair<std::size_t, std::size_t>> windows =
      resolveWindows(config, trace.intervalCount());
  const std::size_t schemeCount = config.schemes.size();
  const std::size_t jobs = config.groups.size() * schemeCount;

  GroupExperimentResult result;
  result.perGroup.resize(jobs);

  unsigned threadCount = config.threads != 0
                             ? config.threads
                             : std::thread::hardware_concurrency();
  threadCount = std::max(1u, std::min<unsigned>(threadCount,
                                                static_cast<unsigned>(jobs)));

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
      const std::size_t groupIndex = job / schemeCount;
      const std::size_t schemeIndex = job % schemeCount;
      telemetry::Telemetry* jobSink =
          telemetry != nullptr ? jobTelemetry[job].get() : nullptr;
      if (windowed) {
        const auto [first, last] = windows[groupIndex];
        GroupRunPartial partial = engine.runChunkPartial(
            config.groups[groupIndex], config.schemes[schemeIndex],
            config.schemeParams, first, last, nullptr, nullptr, jobSink);
        result.perGroup[job] = engine.finalizePartial(
            config.groups[groupIndex], config.schemes[schemeIndex],
            std::move(partial));
      } else {
        result.perGroup[job] =
            engine.run(config.groups[groupIndex], config.schemes[schemeIndex],
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

  summarizeSchemes(result, config);
  DG_LOG(Info) << "group experiment complete: " << jobs << " runs";
  return result;
}

// dgcheck: worker
GroupExperimentResult runPackedGroupExperiment(
    const graph::Graph& overlay, const std::string& packedPath,
    const GroupExperimentConfig& config, telemetry::Telemetry* telemetry) {
  if (config.groups.empty() || config.schemes.empty())
    throw std::invalid_argument(
        "runPackedGroupExperiment: empty groups or schemes");

  store::PackedTraceReader reader = store::PackedTraceReader::open(packedPath);
  if (reader.info().intervalCount == 0 || reader.info().chunkCount == 0)
    throw std::invalid_argument("runPackedGroupExperiment: empty trace");
  const trace::Trace trace = reader.readAll();

  // The chunk is the accumulation block, exactly as in the unicast packed
  // runner: the per-job ascending-chunk fold below then reproduces a
  // single-threaded blocked run bit for bit.
  GroupPlaybackParams playback = config.playback;
  playback.base.conditionCursor = true;
  playback.base.accumBlockIntervals = reader.info().chunkIntervals;
  const GroupPlaybackEngine engine(overlay, trace, playback);

  GroupExperimentResult result;
  const std::size_t schemeCount = config.schemes.size();
  const std::size_t jobs = config.groups.size() * schemeCount;
  const std::vector<std::pair<std::size_t, std::size_t>> windows =
      resolveWindows(config,
                     static_cast<std::size_t>(reader.info().intervalCount));
  const std::size_t chunkCount =
      static_cast<std::size_t>(reader.info().chunkCount);
  const std::size_t chunkIntervals = reader.info().chunkIntervals;
  const std::size_t intervalCount =
      static_cast<std::size_t>(reader.info().intervalCount);
  const std::size_t tasks = jobs * chunkCount;

  result.perGroup.resize(jobs);
  std::vector<GroupRunPartial> partials(tasks);

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

  // Chunks clamped to the group's window, as in the unicast runner.
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
  // -- its unicast equivalent for source->receiver -- so groups sharing
  // a source-receiver pair share one replay. Static kinds carry no
  // decision state and need none.
  playback::ReplayPlan plan;
  std::vector<std::vector<std::size_t>> jobContexts(jobs);
  for (std::size_t job = 0; job < jobs; ++job) {
    const Group& group = config.groups[job / schemeCount];
    const GroupSchemeKind kind = config.schemes[job % schemeCount];
    if (!isAdaptive(kind)) continue;
    for (std::size_t i = 0; i < group.receivers.size(); ++i) {
      jobContexts[job].push_back(plan.context(
          engine.decisionMemoMutable(), unicastEquivalent(kind),
          receiverFlow(group, i),
          receiverSchemeParams(group, i, config.schemeParams)));
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
      playback::ReplayPlan::Context& c = plan.replayContext(i);
      c.checkpoints =
          engine.replayCheckpoints(c.kind, c.flow, c.params, c.stops);
    }
    phases.arrive_and_wait();

    // Worker-private reader and cursor feeds; two sources because the
    // decision cursor lags the truth cursor near chunk boundaries.
    store::PackedTraceReader workerReader =
        store::PackedTraceReader::open(packedPath);
    store::PackedConditionSource decisionSource(workerReader);
    store::PackedConditionSource truthSource(workerReader);
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
      partials[task] = engine.runChunkPartial(
          config.groups[job / schemeCount], config.schemes[job % schemeCount],
          config.schemeParams, first, last, starts, &decisionSource,
          &truthSource,
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
  // order.
  for (std::size_t job = 0; job < jobs; ++job) {
    GroupRunPartial total;
    for (std::size_t chunk = 0; chunk < chunkCount; ++chunk)
      total.merge(std::move(partials[job * chunkCount + chunk]));
    result.perGroup[job] = engine.finalizePartial(
        config.groups[job / schemeCount], config.schemes[job % schemeCount],
        std::move(total));
  }

  if (telemetry != nullptr) {
    for (const auto& taskResult : taskTelemetry)
      telemetry->merge(*taskResult);
    recordExperimentMetrics(*telemetry, jobs, result);
  }

  summarizeSchemes(result, config);
  DG_LOG(Info) << "packed group experiment complete: " << jobs << " runs, "
               << chunkCount << " chunks, " << threadCount << " threads, "
               << plan.replayCount() << " contexts replayed, "
               << plan.checkpointCount() << " checkpoints";
  return result;
}

}  // namespace dg::mcast
