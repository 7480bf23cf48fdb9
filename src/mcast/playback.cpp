#include "mcast/playback.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "playback/delivery_model.hpp"
#include "routing/network_view.hpp"
#include "util/rng.hpp"

namespace dg::mcast {

namespace {

/// Deterministic per-(group, scheme, interval) RNG stream. Same mixing
/// function as the unicast engine's, folding in every receiver (in group
/// order) and the scheme's unicast equivalent -- so a single-receiver
/// group derives the *identical* stream as the unicast run it must match
/// bit for bit.
std::uint64_t groupMixSeed(std::uint64_t seed, const Group& group,
                           GroupSchemeKind kind, std::size_t interval) {
  std::uint64_t x = seed;
  const auto mix = [&x](std::uint64_t v) {
    x ^= v + 0x9E3779B97F4A7C15ULL + (x << 6) + (x >> 2);
  };
  mix(group.source);
  for (const graph::NodeId r : group.receivers) mix(r);
  mix(static_cast<std::uint64_t>(unicastEquivalent(kind)));
  mix(interval);
  return x;
}

}  // namespace

void GroupRunPartial::resize(std::size_t receiverCount) {
  if (receiverMiss.size() == receiverCount) return;
  receiverMiss.resize(receiverCount);
  receiverLatency.resize(receiverCount);
  receiverUnavailableSeconds.resize(receiverCount, 0.0);
  receiverProblematic.resize(receiverCount, 0);
}

// dgcheck: cold: runs once per chunk at merge time, not per interval
void GroupRunPartial::merge(GroupRunPartial&& later) {
  if (receiverMiss.empty()) {
    receiverMiss = std::move(later.receiverMiss);
    receiverLatency = std::move(later.receiverLatency);
    receiverUnavailableSeconds = std::move(later.receiverUnavailableSeconds);
    receiverProblematic = std::move(later.receiverProblematic);
  } else if (!later.receiverMiss.empty()) {
    for (std::size_t r = 0; r < receiverMiss.size(); ++r) {
      receiverMiss[r].merge(later.receiverMiss[r]);
      receiverLatency[r].merge(later.receiverLatency[r]);
      receiverUnavailableSeconds[r] += later.receiverUnavailableSeconds[r];
      receiverProblematic[r] += later.receiverProblematic[r];
    }
  }
  missAllMean.merge(later.missAllMean);
  missKMean.merge(later.missKMean);
  costStats.merge(later.costStats);
  unavailableAllSeconds += later.unavailableAllSeconds;
  problematicIntervals += later.problematicIntervals;
  if (problems.empty()) {
    problems = std::move(later.problems);
  } else {
    problems.insert(problems.end(), later.problems.begin(),
                    later.problems.end());
  }
}

GroupPlaybackEngine::GroupPlaybackEngine(const graph::Graph& overlay,
                                         const trace::Trace& trace,
                                         GroupPlaybackParams params)
    : overlay_(&overlay),
      trace_(&trace),
      params_(params),
      conditionIndex_(trace),
      replay_(overlay, trace, conditionIndex_,
              static_cast<std::size_t>(
                  std::max(params.base.viewStaleness, 0))) {
  if (trace.edgeCount() != overlay.edgeCount())
    throw std::invalid_argument(
        "GroupPlaybackEngine: trace edge count does not match overlay");
  if (params_.base.viewStaleness < 0)
    throw std::invalid_argument("GroupPlaybackEngine: negative staleness");
}

std::vector<routing::DecisionCheckpoint>
GroupPlaybackEngine::replayCheckpoints(routing::SchemeKind kind,
                                       routing::Flow flow,
                                       const routing::SchemeParams& params,
                                       std::span<const std::size_t> stops)
    const {
  return replay_.run(kind, flow, params,
                     params_.base.decisionMemo ? &decisionMemo_ : nullptr,
                     stops);
}

GroupSchemeResult GroupPlaybackEngine::run(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams,
    telemetry::Telemetry* telemetry) const {
  return runRange(group, kind, schemeParams, 0, trace_->intervalCount(),
                  telemetry);
}

GroupSchemeResult GroupPlaybackEngine::runRange(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, telemetry::Telemetry* telemetry) const {
  if (first > last || last > trace_->intervalCount())
    throw std::out_of_range("GroupPlaybackEngine::runRange: bad range");
  return runCore(group, kind, schemeParams, first, last, telemetry);
}

GroupSchemeResult GroupPlaybackEngine::runCore(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, telemetry::Telemetry* telemetry) const {
  auto scheme = makeGroupScheme(kind, *overlay_, group, schemeParams);
  if (params_.base.decisionMemo) scheme->attachDecisionMemo(&decisionMemo_);
  const routing::NetworkView baselineView =
      routing::NetworkView::baseline(*trace_);
  scheme->initialize(baselineView);

  trace::ConditionTimeline decisionCursor(*trace_);
  trace::ConditionTimeline truthCursor(*trace_);

  ScoreSpec spec;
  spec.scheme = scheme.get();
  spec.baselineView = &baselineView;
  spec.group = &group;
  spec.kind = kind;
  spec.first = first;
  spec.last = last;
  spec.warmupUntil =
      first + static_cast<std::size_t>(params_.base.viewStaleness);
  spec.decisionCursor = &decisionCursor;
  spec.truthCursor = &truthCursor;
  spec.telemetry = telemetry;
  spec.reuseCleanEvals = true;
  return finalizePartial(group, kind, scoreIntervals(spec));
}

GroupRunPartial GroupPlaybackEngine::runChunkPartial(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  std::vector<std::vector<routing::DecisionCheckpoint>> checkpoints;
  std::vector<const routing::DecisionCheckpoint*> starts;
  if (first > 0 && isAdaptive(kind)) {
    const std::size_t stops[] = {first};
    for (std::size_t i = 0; i < group.receivers.size(); ++i) {
      checkpoints.push_back(replayCheckpoints(
          unicastEquivalent(kind), receiverFlow(group, i),
          receiverSchemeParams(group, i, schemeParams), stops));
    }
    for (const auto& receiver : checkpoints) starts.push_back(&receiver[0]);
  }
  return runChunkPartial(group, kind, schemeParams, first, last, starts,
                         decisionSource, truthSource, telemetry);
}

// dgcheck: hot
GroupRunPartial GroupPlaybackEngine::runChunkPartial(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last,
    std::span<const routing::DecisionCheckpoint* const> receiverStarts,
    trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  if (first > last || last > trace_->intervalCount())
    throw std::out_of_range("GroupPlaybackEngine::runChunkPartial: bad range");
  if (receiverStarts.empty() == (first > 0 && isAdaptive(kind)))
    throw std::invalid_argument(
        "GroupPlaybackEngine::runChunkPartial: receiver checkpoints are "
        "required exactly when first > 0 and the kind is adaptive");
  if (!params_.base.conditionCursor)
    throw std::logic_error(
        "GroupPlaybackEngine::runChunkPartial requires conditionCursor mode");

  auto scheme = makeGroupScheme(kind, *overlay_, group, schemeParams);
  if (params_.base.decisionMemo) scheme->attachDecisionMemo(&decisionMemo_);
  const routing::NetworkView baselineView =
      routing::NetworkView::baseline(*trace_);
  scheme->initialize(baselineView);
  if (!receiverStarts.empty()) scheme->restoreReceivers(receiverStarts);

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
  spec.group = &group;
  spec.kind = kind;
  spec.first = first;
  spec.last = last;
  // Scheme history starts at interval 0.
  spec.warmupUntil = static_cast<std::size_t>(params_.base.viewStaleness);
  spec.decisionCursor = &*decisionCursor;
  spec.truthCursor = &*truthCursor;
  spec.telemetry = telemetry;
  spec.reuseCleanEvals = true;
  if (telemetry != nullptr && first > 0) {
    // GraphSwitch continuity: the previous chunk ended with this
    // selection in force.
    spec.lastSelectedEdges = scheme->current().edges();
    spec.haveSelected = true;
  }
  return scoreIntervals(spec);
}

GroupSchemeResult GroupPlaybackEngine::finalizePartial(
    const Group& group, GroupSchemeKind kind, GroupRunPartial&& total) const {
  total.resize(group.receivers.size());
  GroupSchemeResult result;
  result.group = group;
  result.scheme = kind;
  result.unavailabilityAll = total.missAllMean.mean();
  result.unavailabilityK = total.missKMean.mean();
  result.unavailableAllSeconds = total.unavailableAllSeconds;
  result.problematicIntervals = total.problematicIntervals;
  result.averageCost = total.costStats.mean();
  result.receivers.resize(group.receivers.size());
  for (std::size_t r = 0; r < group.receivers.size(); ++r) {
    GroupReceiverResult& out = result.receivers[r];
    out.receiver = group.receivers[r];
    out.deadline = receiverDeadline(group, r, params_.base.delivery.deadline);
    out.unavailability = total.receiverMiss[r].mean();
    out.unavailableSeconds = total.receiverUnavailableSeconds[r];
    out.problematicIntervals = total.receiverProblematic[r];
    out.averageLatencyUs = total.receiverLatency[r].mean();
  }
  result.problems = std::move(total.problems);
  return result;
}

GroupRunPartial GroupPlaybackEngine::scoreIntervals(ScoreSpec& spec) const {
  // dgcheck: setup begin
  const bool useCursor = params_.base.conditionCursor;
  const bool reuseCleanEvals = spec.reuseCleanEvals;
  GroupScheme& scheme = *spec.scheme;
  telemetry::Telemetry* telemetry = spec.telemetry;
  const Group& group = *spec.group;
  const std::size_t receiverCount = group.receivers.size();

  // Per-receiver deadlines resolved once per range.
  std::vector<util::SimTime> deadlines(receiverCount);
  for (std::size_t r = 0; r < receiverCount; ++r) {
    deadlines[r] =
        receiverDeadline(group, r, params_.base.delivery.deadline);
  }
  // Delivered-to-k bar: 0 means "all receivers".
  const std::size_t kBar =
      params_.deliveredK == 0 || params_.deliveredK >= receiverCount
          ? receiverCount
          : params_.deliveredK;

  telemetry::Counter* intervalsCounter = nullptr;
  telemetry::Counter* mcIntervalsCounter = nullptr;
  telemetry::Counter* mcSamplesCounter = nullptr;
  telemetry::Counter* switchCounter = nullptr;
  telemetry::HistogramMetric* missHistogram = nullptr;
  if (telemetry != nullptr) {
    const std::string label = groupLabel(group);
    const std::string schemeLabel{groupSchemeName(spec.kind)};
    scheme.setTelemetry(telemetry, label);
    const telemetry::Labels labels{{"group", label},
                                   {"scheme", schemeLabel}};
    telemetry::MetricsRegistry& metrics = telemetry->metrics;
    intervalsCounter = &metrics.counter("dg_mcast_intervals_total", labels);
    mcIntervalsCounter =
        &metrics.counter("dg_mcast_mc_intervals_total", labels);
    mcSamplesCounter = &metrics.counter("dg_mcast_mc_samples_total", labels);
    switchCounter = &metrics.counter("dg_mcast_graph_switches_total", labels);
    missHistogram = &metrics.histogram("dg_mcast_miss_all_probability", 0.0,
                                       1.0, 20, labels);
  }

  // Steady fast path, same observability rule as the unicast engine:
  // skipped fixed-point selects must be unobservable.
  const bool fastPathOk =
      useCursor && telemetry == nullptr && reuseCleanEvals;

  GroupRunPartial total;
  GroupRunPartial block;
  const std::size_t blockLen = params_.base.accumBlockIntervals;
  GroupRunPartial* const acc = blockLen > 0 ? &block : &total;
  acc->resize(receiverCount);

  const double intervalSeconds = util::toSeconds(trace_->intervalLength());
  playback::DeliveryWorkspace workspace;

  // Hot-loop buffers, hoisted so per-interval work never allocates once
  // capacities settle: the interval evaluation (and its clean-reuse
  // copy), the Monte-Carlo tallies, and the delivered-to-k DP row.
  GroupIntervalEval eval;
  GroupIntervalEval cachedEval;
  eval.miss.resize(receiverCount);
  eval.arrival.resize(receiverCount);
  std::vector<int> onTimeCounts(receiverCount);
  std::vector<int> deliveredHistogram(receiverCount + 1);
  std::vector<double> dp(receiverCount + 1);

  // Run-local clean-interval reuse, identical contract to the unicast
  // engine's (same reset points, same pointer/edge-list check).
  std::vector<graph::EdgeId> cachedEdges;
  bool cacheValid = false;
  const graph::DisseminationGraph* cachedDg = nullptr;

  const graph::DisseminationGraph* dg = nullptr;
  bool steady = false;

  const auto staleness = static_cast<std::size_t>(params_.base.viewStaleness);
  // dgcheck: setup end
  for (std::size_t t = spec.first; t < spec.last; ++t) {
    if (blockLen > 0 && t != spec.first && t % blockLen == 0) {
      total.merge(std::move(block));
      block = GroupRunPartial{};
      block.resize(receiverCount);
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
        dg = &scheme.select(*spec.baselineView);
        steady = scheme.steadyOnBaseline();
        cachedDg = nullptr;
      }
    } else if (useCursor) {
      const std::size_t viewInterval = t - staleness;
      spec.decisionCursor->seek(viewInterval);
      const routing::NetworkView view = routing::NetworkView::borrowing(
          *spec.decisionCursor, conditionIndex_.contentId(viewInterval));
      dg = &scheme.select(view);
      steady = false;
      cachedDg = nullptr;
    } else {
      const routing::NetworkView view =
          routing::NetworkView::atInterval(*trace_, t - staleness);
      dg = &scheme.select(view);
      steady = false;
      cachedDg = nullptr;
    }
    if (telemetry != nullptr) {
      if (spec.haveSelected && dg->edges() != spec.lastSelectedEdges) {
        switchCounter->inc();
        telemetry->trace.record(
            telemetry->now, telemetry::TraceEventKind::GraphSwitch, -1,
            group.source, -1, static_cast<double>(dg->edges().size()),
            std::string(groupSchemeName(spec.kind)));
      }
      spec.lastSelectedEdges = dg->edges();
      spec.haveSelected = true;
    }

    // --- Outcome under the interval's true conditions ------------------
    const bool clean = !trace_->hasDeviation(t);
    if (reuseCleanEvals && clean && cacheValid &&
        (dg == cachedDg || dg->edges() == cachedEdges)) {
      eval = cachedEval;
    } else {
      std::span<const double> lossRates;
      std::span<const util::SimTime> latencies;
      std::vector<double> lossBuffer;  // dgcheck: ok(R5): non-cursor fallback; conditionCursor runs never construct these
      std::vector<util::SimTime> latencyBuffer;  // dgcheck: ok(R5): non-cursor fallback; conditionCursor runs never construct these
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

      const bool deterministic =
          playback::nearLossless(*dg, lossRates, params_.base.lossEpsilon);
      if (deterministic) {
        playback::missGroupNearLossless(*dg, group.receivers, deadlines,
                                        lossRates, latencies,
                                        params_.base.delivery, workspace,
                                        eval.miss, eval.arrival);
        eval.monteCarlo = false;
        // Group accounting under per-receiver independence (residual
        // misses live on near-disjoint earliest paths; shared hops make
        // this an upper bound on the delivered-to-all probability gap):
        // P(some receiver misses) via incremental inclusion-exclusion.
        double missAll = eval.miss[0];
        for (std::size_t r = 1; r < receiverCount; ++r) {
          missAll = missAll + eval.miss[r] - missAll * eval.miss[r];
        }
        eval.missAll = missAll;
        if (kBar == receiverCount) {
          eval.missK = missAll;
        } else {
          // Poisson-binomial tail: dp[c] = P(exactly c receivers on
          // time) after the receivers folded so far.
          std::fill(dp.begin(), dp.end(), 0.0);
          dp[0] = 1.0;
          for (std::size_t r = 0; r < receiverCount; ++r) {
            const double q = 1.0 - eval.miss[r];
            for (std::size_t c = r + 1; c >= 1; --c) {
              dp[c] = dp[c] * eval.miss[r] + dp[c - 1] * q;
            }
            dp[0] *= eval.miss[r];
          }
          double atLeastK = 0.0;
          for (std::size_t c = kBar; c <= receiverCount; ++c)
            atLeastK += dp[c];
          eval.missK = 1.0 - atLeastK;
        }
      } else {
        util::Rng rng(
            groupMixSeed(params_.base.seed, group, spec.kind, t));
        playback::onTimeCountsMCGroup(*dg, group.receivers, deadlines,
                                      lossRates, latencies,
                                      params_.base.delivery,
                                      params_.base.mcSamples, rng, workspace,
                                      onTimeCounts, deliveredHistogram);
        const auto samples = static_cast<double>(params_.base.mcSamples);
        for (std::size_t r = 0; r < receiverCount; ++r) {
          eval.miss[r] =
              1.0 - static_cast<double>(onTimeCounts[r]) / samples;
        }
        int deliveredAtLeastK = 0;
        for (std::size_t c = kBar; c <= receiverCount; ++c)
          deliveredAtLeastK += deliveredHistogram[c];
        eval.missAll =
            1.0 -
            static_cast<double>(deliveredHistogram[receiverCount]) / samples;
        eval.missK =
            1.0 - static_cast<double>(deliveredAtLeastK) / samples;
        playback::groupCleanArrivals(*dg, latencies, group.receivers,
                                     workspace, eval.arrival);
        eval.monteCarlo = true;
      }
      eval.cost = static_cast<double>(dg->cost(latencies));

      if (reuseCleanEvals && clean) {
        cachedEdges = dg->edges();
        cachedEval = eval;
        cacheValid = true;
        cachedDg = dg;
      }
      if (eval.monteCarlo && mcIntervalsCounter != nullptr) {
        mcIntervalsCounter->inc();
        mcSamplesCounter->inc(
            static_cast<std::uint64_t>(params_.base.mcSamples));
      }
    }
    if (intervalsCounter != nullptr) {
      intervalsCounter->inc();
      missHistogram->observe(eval.missAll);
    }

    for (std::size_t r = 0; r < receiverCount; ++r) {
      acc->receiverMiss[r].add(eval.miss[r], 1.0);
      if (eval.arrival[r] != util::kNever) {
        acc->receiverLatency[r].add(static_cast<double>(eval.arrival[r]));
      }
      acc->receiverUnavailableSeconds[r] += eval.miss[r] * intervalSeconds;
      if (eval.miss[r] > params_.base.problematicThreshold) {
        ++acc->receiverProblematic[r];
      }
    }
    acc->missAllMean.add(eval.missAll, 1.0);
    acc->missKMean.add(eval.missK, 1.0);
    acc->costStats.add(eval.cost);
    acc->unavailableAllSeconds += eval.missAll * intervalSeconds;
    if (eval.missAll > params_.base.problematicThreshold) {
      ++acc->problematicIntervals;
      acc->problems.push_back(  // dgcheck: ok(R5): bounded by problematic intervals; diagnostic record with amortized growth
          playback::ProblematicInterval{t, eval.missAll});
    }
  }
  if (blockLen > 0) total.merge(std::move(block));
  return total;
}

}  // namespace dg::mcast
