#include "playback/playback.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"
#include "util/wall_clock.hpp"

namespace dg::playback {

namespace {

/// Deterministic per-(flow, scheme, interval) RNG stream so results do
/// not depend on evaluation order.
std::uint64_t mixSeed(std::uint64_t seed, routing::Flow flow,
                      routing::SchemeKind kind, std::size_t interval) {
  std::uint64_t x = seed;
  const auto mix = [&x](std::uint64_t v) {
    x ^= v + 0x9E3779B97F4A7C15ULL + (x << 6) + (x >> 2);
  };
  mix(flow.source);
  mix(flow.destination);
  mix(static_cast<std::uint64_t>(kind));
  mix(interval);
  return x;
}

}  // namespace

// dgcheck: cold: runs once per chunk at merge time, not per interval
void RunPartial::merge(RunPartial&& later) {
  missMean.merge(later.missMean);
  costStats.merge(later.costStats);
  latencyStats.merge(later.latencyStats);
  unavailableSeconds += later.unavailableSeconds;
  problematicIntervals += later.problematicIntervals;
  if (problems.empty()) {
    problems = std::move(later.problems);
  } else {
    problems.insert(problems.end(), later.problems.begin(),
                    later.problems.end());
  }
  if (intervalLatenciesUs.empty()) {
    intervalLatenciesUs = std::move(later.intervalLatenciesUs);
  } else {
    intervalLatenciesUs.insert(intervalLatenciesUs.end(),
                               later.intervalLatenciesUs.begin(),
                               later.intervalLatenciesUs.end());
  }
}

DecisionReplay::DecisionReplay(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               const trace::ConditionIndex& index,
                               std::size_t staleness)
    : overlay_(&overlay),
      trace_(&trace),
      index_(&index),
      staleness_(staleness) {
  for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
    if (trace.hasDeviation(t)) deviatingIntervals_.push_back(t);
  }
}

std::size_t DecisionReplay::nextDeviatingDecision(
    std::size_t fromInterval) const {
  // The decision at t sees interval t - staleness, so the first candidate
  // deviation is at view interval max(fromInterval, staleness) -
  // staleness.
  const std::size_t fromView =
      fromInterval > staleness_ ? fromInterval - staleness_ : 0;
  const auto it = std::lower_bound(deviatingIntervals_.begin(),
                                   deviatingIntervals_.end(), fromView);
  if (it == deviatingIntervals_.end()) return trace_->intervalCount();
  return std::max(fromInterval, *it + staleness_);
}

// dgcheck: cold: runs once per (context, sweep); allocates one checkpoint per stop
std::vector<routing::DecisionCheckpoint> DecisionReplay::run(
    routing::SchemeKind kind, routing::Flow flow,
    const routing::SchemeParams& params, routing::DecisionMemo* memo,
    std::span<const std::size_t> stops) const {
  auto scheme = routing::makeScheme(kind, *overlay_, flow, params);
  if (memo != nullptr)
    scheme->setDecisionMemo(memo, memo->contextKey(kind, flow, params));
  const routing::NetworkView baselineView =
      routing::NetworkView::baseline(*trace_);
  scheme->initialize(baselineView);
  trace::ConditionTimeline cursor(*trace_);

  std::vector<routing::DecisionCheckpoint> checkpoints;
  checkpoints.reserve(stops.size());
  const graph::DisseminationGraph* dg = nullptr;
  std::size_t t = 0;
  std::size_t previous = 0;
  for (const std::size_t stop : stops) {
    if (stop <= previous || stop > trace_->intervalCount())
      throw std::out_of_range("DecisionReplay::run: stops must ascend in "
                              "(0, intervalCount]");
    previous = stop;
    // A steady-span jump may carry t past `stop`: the state is at its
    // fixed point across the whole span, so it is the state at `stop`.
    while (t < stop) {
      if (t < staleness_ || !trace_->hasDeviation(t - staleness_)) {
        dg = &scheme->select(baselineView);
        if (scheme->steadyOnBaseline()) {
          t = nextDeviatingDecision(t + 1);
          continue;
        }
        ++t;
      } else {
        const std::size_t viewInterval = t - staleness_;
        cursor.seek(viewInterval);
        const routing::NetworkView view = routing::NetworkView::borrowing(
            cursor, index_->contentId(viewInterval));
        dg = &scheme->select(view);
        ++t;
      }
    }
    checkpoints.push_back({scheme->saveState(), dg->edges()});
  }
  return checkpoints;
}

PlaybackEngine::PlaybackEngine(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               PlaybackParams params)
    : overlay_(&overlay),
      trace_(&trace),
      params_(params),
      conditionIndex_(trace),
      replay_(overlay, trace, conditionIndex_,
              static_cast<std::size_t>(std::max(params.viewStaleness, 0))) {
  if (trace.edgeCount() != overlay.edgeCount())
    throw std::invalid_argument(
        "PlaybackEngine: trace edge count does not match overlay");
  if (params_.viewStaleness < 0)
    throw std::invalid_argument("PlaybackEngine: negative staleness");
}

std::vector<routing::DecisionCheckpoint> PlaybackEngine::replayCheckpoints(
    routing::SchemeKind kind, routing::Flow flow,
    const routing::SchemeParams& schemeParams,
    std::span<const std::size_t> stops) const {
  const std::int64_t t0 = params_.collectStageTimings ? util::nowNanos() : 0;
  std::vector<routing::DecisionCheckpoint> checkpoints =
      replay_.run(kind, flow, schemeParams,
                  params_.decisionMemo ? &decisionMemo_ : nullptr, stops);
  if (params_.collectStageTimings) {
    stageTimings_.memoNs.fetch_add(
        static_cast<std::uint64_t>(util::nowNanos() - t0),
        std::memory_order_relaxed);
  }
  return checkpoints;
}

std::optional<PlaybackEngine::IntervalEval> PlaybackEngine::findEval(
    const EvalKey& key) const {
  const std::scoped_lock lock(evalMutex_);
  const auto it = evalMemo_.find(key);
  if (it == evalMemo_.end()) return std::nullopt;
  return it->second;
}

void PlaybackEngine::storeEval(const EvalKey& key,
                               const IntervalEval& eval) const {
  const std::scoped_lock lock(evalMutex_);
  evalMemo_.emplace(key, eval);
}

FlowSchemeResult PlaybackEngine::run(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams,
    telemetry::Telemetry* telemetry) const {
  return runRange(flow, kind, schemeParams, 0, trace_->intervalCount(),
                  telemetry);
}

FlowSchemeResult PlaybackEngine::runRange(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, telemetry::Telemetry* telemetry) const {
  if (first > last || last > trace_->intervalCount())
    throw std::out_of_range("PlaybackEngine::runRange: bad range");
  return runCore(flow, kind, schemeParams, first, last, telemetry, nullptr);
}

std::vector<double> PlaybackEngine::missTimeline(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last) const {
  if (first > last || last > trace_->intervalCount())
    throw std::out_of_range("PlaybackEngine::missTimeline: bad range");
  std::vector<double> timeline;
  timeline.reserve(last - first);
  runCore(flow, kind, schemeParams, first, last, nullptr, &timeline);
  return timeline;
}

FlowSchemeResult PlaybackEngine::runCore(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, telemetry::Telemetry* telemetry,
    std::vector<double>* timelineOut) const {
  auto scheme = routing::makeScheme(kind, *overlay_, flow, schemeParams);
  if (params_.decisionMemo) {
    scheme->setDecisionMemo(
        &decisionMemo_, decisionMemo_.contextKey(kind, flow, schemeParams));
  }
  const routing::NetworkView baselineView =
      routing::NetworkView::baseline(*trace_);
  scheme->initialize(baselineView);

  // Replay cursors: the decision cursor tracks the (stale) interval the
  // scheme sees, the truth cursor tracks the interval being scored.
  trace::ConditionTimeline decisionCursor(*trace_);
  trace::ConditionTimeline truthCursor(*trace_);

  ScoreSpec spec;
  spec.scheme = scheme.get();
  spec.baselineView = &baselineView;
  spec.flow = flow;
  spec.kind = kind;
  spec.first = first;
  spec.last = last;
  spec.warmupUntil = first + static_cast<std::size_t>(params_.viewStaleness);
  spec.decisionCursor = &decisionCursor;
  spec.truthCursor = &truthCursor;
  spec.telemetry = telemetry;
  spec.timelineOut = timelineOut;
  // runRange reuses the evaluation of clean intervals while the selected
  // graph is unchanged (including Monte-Carlo ones -- identical inputs,
  // identical distribution); missTimeline evaluates every interval fresh
  // so each Monte-Carlo interval reflects its own RNG stream.
  spec.reuseCleanEvals = timelineOut == nullptr;
  return finalizePartial(flow, kind, scoreIntervals(spec));
}

RunPartial PlaybackEngine::runChunkPartial(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  if (first == 0) {
    return runChunkPartial(flow, kind, schemeParams, first, last, nullptr,
                           decisionSource, truthSource, telemetry);
  }
  const std::size_t stops[] = {first};
  const std::vector<routing::DecisionCheckpoint> start =
      replayCheckpoints(kind, flow, schemeParams, stops);
  return runChunkPartial(flow, kind, schemeParams, first, last, &start[0],
                         decisionSource, truthSource, telemetry);
}

// dgcheck: hot
RunPartial PlaybackEngine::runChunkPartial(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, const routing::DecisionCheckpoint* start,
    trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  if (first > last || last > trace_->intervalCount())
    throw std::out_of_range("PlaybackEngine::runChunkPartial: bad range");
  if ((first == 0) != (start == nullptr))
    throw std::invalid_argument(
        "PlaybackEngine::runChunkPartial: a start checkpoint is required "
        "exactly when first > 0");
  if (!params_.conditionCursor)
    throw std::logic_error(
        "PlaybackEngine::runChunkPartial requires conditionCursor mode");

  auto scheme = routing::makeScheme(kind, *overlay_, flow, schemeParams);
  if (params_.decisionMemo) {
    scheme->setDecisionMemo(
        &decisionMemo_, decisionMemo_.contextKey(kind, flow, schemeParams));
  }
  const routing::NetworkView baselineView =
      routing::NetworkView::baseline(*trace_);
  scheme->initialize(baselineView);
  if (start != nullptr) scheme->restoreState(start->state);

  std::optional<trace::ConditionTimeline> decisionCursor;
  std::optional<trace::ConditionTimeline> truthCursor;
  if (decisionSource != nullptr) {
    decisionCursor.emplace(*decisionSource);
  } else {
    decisionCursor.emplace(*trace_);
  }
  if (truthSource != nullptr) {
    truthCursor.emplace(*truthSource);
  } else {
    truthCursor.emplace(*trace_);
  }

  ScoreSpec spec;
  spec.scheme = scheme.get();
  spec.baselineView = &baselineView;
  spec.flow = flow;
  spec.kind = kind;
  spec.first = first;
  spec.last = last;
  // Scheme history starts at interval 0.
  spec.warmupUntil = static_cast<std::size_t>(params_.viewStaleness);
  spec.decisionCursor = &*decisionCursor;
  spec.truthCursor = &*truthCursor;
  spec.telemetry = telemetry;
  spec.timelineOut = nullptr;
  spec.reuseCleanEvals = true;
  if (telemetry != nullptr && start != nullptr) {
    // GraphSwitch continuity: the previous chunk ended with this
    // selection in force.
    spec.lastSelectedEdges = start->lastEdges;
    spec.haveSelected = true;
  }
  return scoreIntervals(spec);
}

FlowSchemeResult PlaybackEngine::finalizePartial(routing::Flow flow,
                                                 routing::SchemeKind kind,
                                                 RunPartial&& total) const {
  FlowSchemeResult result;
  result.flow = flow;
  result.scheme = kind;
  result.unavailability = total.missMean.mean();
  result.unavailableSeconds = total.unavailableSeconds;
  result.problematicIntervals = total.problematicIntervals;
  result.averageCost = total.costStats.mean();
  result.averageLatencyUs = total.latencyStats.mean();
  result.problems = std::move(total.problems);
  result.intervalLatenciesUs = std::move(total.intervalLatenciesUs);
  return result;
}

RunPartial PlaybackEngine::scoreIntervals(ScoreSpec& spec) const {
  // dgcheck: setup begin
  const bool useMemo = params_.decisionMemo;
  const bool useCursor = params_.conditionCursor;
  const bool reuseCleanEvals = spec.reuseCleanEvals;
  routing::RoutingScheme& scheme = *spec.scheme;
  telemetry::Telemetry* telemetry = spec.telemetry;

  // Telemetry handles, resolved once per range (null when detached).
  telemetry::Counter* intervalsCounter = nullptr;
  telemetry::Counter* mcIntervalsCounter = nullptr;
  telemetry::Counter* mcSamplesCounter = nullptr;
  telemetry::Counter* switchCounter = nullptr;
  telemetry::HistogramMetric* missHistogram = nullptr;
  if (telemetry != nullptr) {
    const std::string flowLabel = std::to_string(spec.flow.source) + "->" +
                                  std::to_string(spec.flow.destination);
    const std::string schemeLabel{routing::schemeName(spec.kind)};
    scheme.setTelemetry(telemetry, flowLabel);
    const telemetry::Labels labels{{"flow", flowLabel},
                                   {"scheme", schemeLabel}};
    telemetry::MetricsRegistry& metrics = telemetry->metrics;
    intervalsCounter =
        &metrics.counter("dg_playback_intervals_total", labels);
    mcIntervalsCounter =
        &metrics.counter("dg_playback_mc_intervals_total", labels);
    mcSamplesCounter =
        &metrics.counter("dg_playback_mc_samples_total", labels);
    switchCounter =
        &metrics.counter("dg_routing_graph_switches_total", labels);
    missHistogram = &metrics.histogram("dg_playback_miss_probability", 0.0,
                                       1.0, 20, labels);
  }

  // Steady fast path: while the scheme is at its clean fixed point and
  // the decision view stays on baseline, select() calls are provably
  // no-ops and may be skipped -- but only when nobody can observe them:
  // telemetry counts classifications per call, and missTimeline
  // (reuseCleanEvals == false) must evaluate every interval fresh.
  const bool fastPathOk =
      useCursor && telemetry == nullptr && reuseCleanEvals;

  RunPartial total;
  RunPartial block;
  const std::size_t blockLen = params_.accumBlockIntervals;
  RunPartial* const acc = blockLen > 0 ? &block : &total;

  const double intervalSeconds = util::toSeconds(trace_->intervalLength());
  DeliveryWorkspace workspace;

  // Run-local reuse: when the interval is clean and the scheme returns
  // the same graph as last time, the evaluation is unchanged. `cachedDg`
  // short-circuits the edge-list comparison: it is reset on every actual
  // select()/fold, so pointer equality implies the selection was not
  // touched since the cache was filled.
  std::vector<graph::EdgeId> cachedEdges;
  IntervalEval cachedEval;
  bool cacheValid = false;
  const graph::DisseminationGraph* cachedDg = nullptr;

  // Run-local interned edge-list id of the current selection (graph
  // switches are rare, so interning is amortized away).
  std::vector<graph::EdgeId> internedEdges;
  std::uint32_t internedId = 0;
  bool haveInterned = false;

  const bool timed = params_.collectStageTimings;
  std::uint64_t decodeNs = 0;
  std::uint64_t mcNs = 0;
  std::uint64_t memoNs = 0;
  std::uint64_t mergeNs = 0;
  std::int64_t t0 = 0;

  const graph::DisseminationGraph* dg = nullptr;
  bool steady = false;

  const auto staleness = static_cast<std::size_t>(params_.viewStaleness);
  // dgcheck: setup end
  for (std::size_t t = spec.first; t < spec.last; ++t) {
    if (blockLen > 0 && t != spec.first && t % blockLen == 0) {
      // Fold the finished accumulation block and reset run-local reuse:
      // chunk-parallel partials start cold at these exact boundaries, and
      // bit-identical results require identical reuse decisions.
      if (timed) t0 = util::nowNanos();
      total.merge(std::move(block));
      block = RunPartial{};
      if (timed) mergeNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
      cacheValid = false;
      cachedDg = nullptr;
    }
    if (telemetry != nullptr) {
      telemetry->now =
          static_cast<util::SimTime>(t) * trace_->intervalLength();
    }
    // --- Decision: what does the scheme believe right now? -------------
    const bool baselineDecision =
        t < spec.warmupUntil || !trace_->hasDeviation(t - staleness);
    if (baselineDecision) {
      if (!(steady && fastPathOk)) {
        if (timed) t0 = util::nowNanos();
        dg = &scheme.select(*spec.baselineView);
        steady = scheme.steadyOnBaseline();
        if (timed)
          memoNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
        cachedDg = nullptr;
      }
    } else if (useCursor) {
      const std::size_t viewInterval = t - staleness;
      if (timed) t0 = util::nowNanos();
      spec.decisionCursor->seek(viewInterval);
      const routing::NetworkView view = routing::NetworkView::borrowing(
          *spec.decisionCursor, conditionIndex_.contentId(viewInterval));
      if (timed) {
        decodeNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
        t0 = util::nowNanos();
      }
      dg = &scheme.select(view);
      if (timed) memoNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
      steady = false;
      cachedDg = nullptr;
    } else {
      if (timed) t0 = util::nowNanos();
      const routing::NetworkView view =
          routing::NetworkView::atInterval(*trace_, t - staleness);
      if (timed) {
        decodeNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
        t0 = util::nowNanos();
      }
      dg = &scheme.select(view);
      if (timed) memoNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
      steady = false;
      cachedDg = nullptr;
    }
    if (telemetry != nullptr) {
      if (spec.haveSelected && dg->edges() != spec.lastSelectedEdges) {
        switchCounter->inc();
        telemetry->trace.record(
            telemetry->now, telemetry::TraceEventKind::GraphSwitch, -1,
            spec.flow.source, -1, static_cast<double>(dg->edges().size()),
            std::string(routing::schemeName(spec.kind)));
      }
      spec.lastSelectedEdges = dg->edges();
      spec.haveSelected = true;
    }

    // --- Outcome under the interval's true conditions ------------------
    IntervalEval eval;
    const bool clean = !trace_->hasDeviation(t);
    if (reuseCleanEvals && clean && cacheValid &&
        (dg == cachedDg || dg->edges() == cachedEdges)) {
      eval = cachedEval;
    } else {
      std::span<const double> lossRates;
      std::span<const util::SimTime> latencies;
      std::vector<double> lossBuffer;  // dgcheck: ok(R5): non-cursor fallback; conditionCursor runs never construct these
      std::vector<util::SimTime> latencyBuffer;  // dgcheck: ok(R5): non-cursor fallback; conditionCursor runs never construct these
      if (timed) t0 = util::nowNanos();
      if (useCursor) {
        spec.truthCursor->seek(t);
        lossRates = spec.truthCursor->lossRates();
        latencies = spec.truthCursor->latencies();
      } else {
        lossBuffer = trace_->lossRatesAt(t);
        latencyBuffer = trace_->latenciesAt(t);
        lossRates = lossBuffer;
        latencies = latencyBuffer;
      }
      if (timed)
        decodeNs += static_cast<std::uint64_t>(util::nowNanos() - t0);

      // Deterministic (near-lossless) evaluations are pure functions of
      // (flow, graph edges, interval content) and shared across jobs;
      // Monte-Carlo evaluations are always computed fresh from their own
      // per-(flow, scheme, interval) RNG stream.
      const bool deterministic =
          nearLossless(*dg, lossRates, params_.lossEpsilon);
      bool evaluated = false;
      EvalKey evalKey{};
      if (deterministic && useMemo) {
        if (timed) t0 = util::nowNanos();
        if (!haveInterned || dg->edges() != internedEdges) {
          internedId = decisionMemo_.internEdgeList(dg->edges());
          internedEdges = dg->edges();
          haveInterned = true;
        }
        evalKey = EvalKey{spec.flow.source, spec.flow.destination,
                          internedId, conditionIndex_.contentId(t)};
        if (const auto hit = findEval(evalKey)) {
          eval = *hit;
          evaluated = true;
        }
        if (timed)
          memoNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
      }
      if (!evaluated) {
        // Legacy mode evaluates through the frozen reference
        // implementations so the benchmark's baseline arm reproduces
        // pre-optimization behavior (and the equivalence tests pit the
        // optimized evaluators against the originals).
        if (deterministic) {
          if (timed) t0 = util::nowNanos();
          eval.miss =
              useCursor ? missProbabilityNearLossless(*dg, lossRates,
                                                      latencies,
                                                      params_.delivery,
                                                      workspace)
                        : missProbabilityNearLosslessReference(
                              *dg, lossRates, latencies, params_.delivery);
          if (timed)
            memoNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
        } else {
          if (timed) t0 = util::nowNanos();
          util::Rng rng(mixSeed(params_.seed, spec.flow, spec.kind, t));
          const double onTime =
              useCursor ? onTimeProbabilityMC(*dg, lossRates, latencies,
                                              params_.delivery,
                                              params_.mcSamples, rng,
                                              workspace)
                        : onTimeProbabilityMCReference(
                              *dg, lossRates, latencies, params_.delivery,
                              params_.mcSamples, rng);  // dgcheck: ok(R6): ternary branches are mutually exclusive; exactly one callee draws from this rng
          eval.miss = 1.0 - onTime;
          eval.monteCarlo = true;
          if (timed)
            mcNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
        }
        eval.cost = static_cast<double>(dg->cost(latencies));
        eval.latency = dg->latencyToDestination(latencies);
        if (deterministic && useMemo) {
          if (timed) t0 = util::nowNanos();
          storeEval(evalKey, eval);
          if (timed)
            memoNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
        }
      }
      if (reuseCleanEvals && clean) {
        cachedEdges = dg->edges();
        cachedEval = eval;
        cacheValid = true;
        cachedDg = dg;
      }
      if (eval.monteCarlo && mcIntervalsCounter != nullptr) {
        mcIntervalsCounter->inc();
        mcSamplesCounter->inc(static_cast<std::uint64_t>(params_.mcSamples));
      }
    }
    if (intervalsCounter != nullptr) {
      intervalsCounter->inc();
      missHistogram->observe(eval.miss);
    }
    if (spec.timelineOut != nullptr) spec.timelineOut->push_back(eval.miss);  // dgcheck: ok(R5): diagnostic miss-timeline output; absent in benchmark runs

    acc->missMean.add(eval.miss, 1.0);
    acc->costStats.add(eval.cost);
    if (eval.latency != util::kNever) {
      acc->latencyStats.add(static_cast<double>(eval.latency));
      if (params_.collectIntervalLatencies) {
        acc->intervalLatenciesUs.push_back(  // dgcheck: ok(R5): opt-in interval-latency capture; amortized push on the diagnostic path
            static_cast<double>(eval.latency));
      }
    }
    acc->unavailableSeconds += eval.miss * intervalSeconds;
    if (eval.miss > params_.problematicThreshold) {
      ++acc->problematicIntervals;
      acc->problems.push_back(ProblematicInterval{t, eval.miss});  // dgcheck: ok(R5): bounded by problematic intervals; diagnostic record with amortized growth
    }
  }
  if (blockLen > 0) {
    if (timed) t0 = util::nowNanos();
    total.merge(std::move(block));
    if (timed) mergeNs += static_cast<std::uint64_t>(util::nowNanos() - t0);
  }
  if (timed) {
    stageTimings_.decodeNs.fetch_add(decodeNs, std::memory_order_relaxed);
    stageTimings_.mcNs.fetch_add(mcNs, std::memory_order_relaxed);
    stageTimings_.memoNs.fetch_add(memoNs, std::memory_order_relaxed);
    stageTimings_.mergeNs.fetch_add(mergeNs, std::memory_order_relaxed);
  }
  return total;
}

}  // namespace dg::playback
