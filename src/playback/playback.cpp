#include "playback/playback.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "routing/network_view.hpp"
#include "routing/problem_detector.hpp"
#include "util/rng.hpp"
#include "util/wall_clock.hpp"

namespace dg::playback {

namespace {

/// Deterministic per-(unit, scheme, interval) RNG stream, folding in every
/// receiver (in group order) and the scheme's unicast equivalent, so
/// results do not depend on evaluation order. A flow's stream is that of
/// its one-receiver group: (seed, source, destination, unicast kind,
/// interval).
std::uint64_t unitMixSeed(std::uint64_t seed, const mcast::Group& group,
                          mcast::GroupSchemeKind kind, std::size_t interval) {
  std::uint64_t x = seed;
  const auto mix = [&x](std::uint64_t v) {
    x ^= v + 0x9E3779B97F4A7C15ULL + (x << 6) + (x >> 2);
  };
  mix(group.source);
  for (const graph::NodeId r : group.receivers) mix(r);
  mix(static_cast<std::uint64_t>(mcast::unicastEquivalent(kind)));
  mix(interval);
  return x;
}

}  // namespace

struct PlaybackEngine::UnitNames {
  const char* unitKey;
  const char* intervals;
  const char* mcIntervals;
  const char* mcSamples;
  const char* graphSwitches;
  const char* missHistogram;
};

const PlaybackEngine::UnitNames PlaybackEngine::kFlowNames{
    "flow",
    "dg_playback_intervals_total",
    "dg_playback_mc_intervals_total",
    "dg_playback_mc_samples_total",
    "dg_routing_graph_switches_total",
    "dg_playback_miss_probability"};

const PlaybackEngine::UnitNames PlaybackEngine::kGroupNames{
    "group",
    "dg_mcast_intervals_total",
    "dg_mcast_mc_intervals_total",
    "dg_mcast_mc_samples_total",
    "dg_mcast_graph_switches_total",
    "dg_mcast_miss_all_probability"};

void RunPartial::resize(std::size_t receiverCount) {
  if (receiverMiss.size() == receiverCount) return;
  receiverMiss.resize(receiverCount);
  receiverLatency.resize(receiverCount);
  receiverUnavailableSeconds.resize(receiverCount, 0.0);
  receiverProblematic.resize(receiverCount, 0);
}

// dgcheck: cold: runs once per chunk at merge time, not per interval
void RunPartial::merge(RunPartial&& later) {
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
  deliveryWork += later.deliveryWork;
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

DecisionReplay::Work DecisionReplay::work() const {
  return {decisions_.load(std::memory_order_relaxed),
          intervals_.load(std::memory_order_relaxed)};
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

std::size_t DecisionReplay::lastBaselineDecision(std::size_t stop) const {
  const std::size_t t = stop - 1;
  if (t < staleness_) return t;
  // Step back over the run of deviating view intervals ending at t's.
  std::size_t view = t - staleness_;
  auto it = std::upper_bound(deviatingIntervals_.begin(),
                             deviatingIntervals_.end(), view);
  while (it != deviatingIntervals_.begin() && *std::prev(it) == view) {
    --it;
    if (view == 0) return staleness_ == 0 ? kNoDecision : staleness_ - 1;
    --view;
  }
  return view + staleness_;
}

namespace {

/// The view each decision interval sees: the baseline view before any
/// interval is visible or while the interval `staleness` earlier is
/// clean, otherwise that interval through a fingerprinted cursor view.
class DecisionViews {
 public:
  DecisionViews(const trace::Trace& trace, const trace::ConditionIndex& index,
                std::size_t staleness)
      : trace_(&trace),
        index_(&index),
        staleness_(staleness),
        baseline_(routing::NetworkView::baseline(trace)),
        cursor_(trace) {}

  bool isBaseline(std::size_t t) const {
    return t < staleness_ || !trace_->hasDeviation(t - staleness_);
  }
  const routing::NetworkView& baseline() const { return baseline_; }

  /// The view decision `t` sees; valid until the next at() call.
  const routing::NetworkView& at(std::size_t t) {
    if (isBaseline(t)) return baseline_;
    const std::size_t viewInterval = t - staleness_;
    cursor_.seek(viewInterval);
    view_.emplace(routing::NetworkView::borrowing(
        cursor_, index_->contentId(viewInterval)));
    return *view_;
  }

 private:
  const trace::Trace* trace_;
  const trace::ConditionIndex* index_;
  std::size_t staleness_;
  routing::NetworkView baseline_;
  trace::ConditionTimeline cursor_;
  std::optional<routing::NetworkView> view_;
};

/// Targeted redundancy's state at a stop, recovered from the decisions
/// that can still affect it (DESIGN.md, "One bounded decision replay per
/// context"). select() reads back four fields: the two hold-down
/// counters, which depend only on the last holdDownIntervals decisions,
/// and the middle-problem pair -- the weights of the last middle-only
/// decision (problem.middle with no source or destination problem once
/// holds apply) and the graph of the last *re-plan* that found a route (a
/// middle-only decision whose weights differ from the previous
/// middle-only decision's). Decision views are classified backwards from
/// the stop, down to the previous stop whose exact state is known, and
/// the scheme itself re-plans only the middle-only decisions the pair
/// needs. Requires a baseline view that classifies as no problem, so that
/// only deviating decisions can detect anything.
class TargetedRecovery {
 public:
  TargetedRecovery(routing::RoutingScheme& scheme, DecisionViews& views,
                   std::span<const std::size_t> deviatingIntervals,
                   std::size_t staleness)
      : scheme_(&scheme),
        views_(&views),
        detector_(scheme.overlay(), scheme.params().detector),
        hold_(std::max(scheme.params().holdDownIntervals, 0)),
        deviatingIntervals_(deviatingIntervals),
        staleness_(staleness) {}

  /// False when the baseline view itself classifies as a problem: then
  /// baseline decisions detect too, and the replay walks from interval 0.
  bool applies() const {
    const routing::Flow flow = scheme_->flow();
    return !detector_.classify(views_->baseline(), flow.source,
                               flow.destination)
                .any();
  }

  /// The checkpoint at `stop`, given the exact state `before` at the
  /// previous stop `floor` < stop (interval 0 and the initial state for
  /// the first stop).
  routing::DecisionCheckpoint at(std::size_t stop, std::size_t floor,
                                 const routing::SchemeState& before) {
    lowest_ = stop;
    floor_ = floor;
    const std::size_t last = stop - 1;
    // Scan cursor: the deviating decisions below `last`, descending.
    scanNext_ = static_cast<std::size_t>(
        std::lower_bound(deviatingIntervals_.begin(),
                         deviatingIntervals_.end(),
                         last > staleness_ ? last - staleness_ : 0) -
        deviatingIntervals_.begin());

    // The state just before decision `last`, with the fallback graph left
    // empty (a found route never is): if `last` re-plans and finds a
    // route, the fallback before it is never read.
    routing::SchemeState pre;
    holdsBefore(last, pre.sourceHold, pre.destinationHold);
    const std::optional<std::size_t> latest = nextMiddleOnly();
    if (latest) {
      weightsOf(*latest, pre.weights);
    } else {
      pre.weights = before.weights;
    }
    scheme_->restoreState(pre);
    const graph::DisseminationGraph* dg = &select(last);
    if (scheme_->saveState().edges.empty()) {
      pre.edges = fallback(latest, pre.weights, before);
      scheme_->restoreState(pre);
      dg = &select(last);
    }
    return {scheme_->saveState(), dg->edges()};
  }

  std::uint64_t decisions() const { return decisions_; }
  /// The earliest decision interval the last at() read.
  std::size_t lowest() const { return lowest_; }

 private:
  /// The detector's classification of decision `t`.
  routing::FlowProblem detected(std::size_t t) {
    if (views_->isBaseline(t)) return {};
    lowest_ = std::min(lowest_, t);
    const routing::Flow flow = scheme_->flow();
    return detector_.classify(views_->at(t), flow.source, flow.destination);
  }

  /// The hold-down counters when decision `t` is about to be made: a
  /// detection at d re-arms its counter to the hold-down, and each later
  /// decision drains it by one.
  void holdsBefore(std::size_t t, int& source, int& destination) {
    source = 0;
    destination = 0;
    for (std::size_t k = 1; k <= static_cast<std::size_t>(hold_) && k <= t;
         ++k) {
      const routing::FlowProblem p = detected(t - k);
      const int left = hold_ + 1 - static_cast<int>(k);
      if (p.source && source == 0) source = left;
      if (p.destination && destination == 0) destination = left;
    }
  }

  /// The next middle-only decision at or above floor_, descending from
  /// the previous one found; nullopt once the scan passes floor_.
  std::optional<std::size_t> nextMiddleOnly() {
    while (scanNext_ > 0) {
      const std::size_t t = deviatingIntervals_[--scanNext_] + staleness_;
      if (t < floor_) {
        scanNext_ = 0;
        break;
      }
      const routing::FlowProblem p = detected(t);
      if (!p.middle || p.source || p.destination) continue;
      bool held = false;
      for (std::size_t k = 1;
           k <= static_cast<std::size_t>(hold_) && k <= t && !held; ++k) {
        const routing::FlowProblem q = detected(t - k);
        held = q.source || q.destination;
      }
      if (!held) return t;
    }
    return std::nullopt;
  }

  /// The fallback graph in force after middle-only decision `latest`
  /// (weights `latestWeights`): the plan of the latest re-plan at or
  /// before it that found a route, else the fallback of `before`.
  std::vector<graph::EdgeId> fallback(std::optional<std::size_t> latest,
                                      std::vector<util::SimTime> latestWeights,
                                      const routing::SchemeState& before) {
    std::vector<util::SimTime> previousWeights;
    while (latest) {
      const std::optional<std::size_t> previous = nextMiddleOnly();
      if (previous) {
        weightsOf(*previous, previousWeights);
      } else {
        previousWeights = before.weights;
      }
      if (latestWeights != previousWeights) {
        // A fresh scheme state with no weights re-plans on this view.
        scheme_->restoreState({});
        select(*latest);
        std::vector<graph::EdgeId> plan = scheme_->saveState().edges;
        if (!plan.empty()) return plan;
      }
      latest = previous;
      std::swap(latestWeights, previousWeights);
    }
    return before.edges;
  }

  void weightsOf(std::size_t t, std::vector<util::SimTime>& out) {
    lowest_ = std::min(lowest_, t);
    views_->at(t).routingWeightsInto(scheme_->params().view, out);
  }

  const graph::DisseminationGraph& select(std::size_t t) {
    lowest_ = std::min(lowest_, t);
    ++decisions_;
    return scheme_->select(views_->at(t));
  }

  routing::RoutingScheme* scheme_;
  DecisionViews* views_;
  routing::ProblemDetector detector_;
  int hold_;
  std::span<const std::size_t> deviatingIntervals_;
  std::size_t staleness_;
  std::size_t scanNext_ = 0;
  std::size_t floor_ = 0;
  std::size_t lowest_ = 0;
  std::uint64_t decisions_ = 0;
};

}  // namespace

// dgcheck: cold: runs once per (context, sweep); allocates one checkpoint per stop
std::vector<routing::DecisionCheckpoint> DecisionReplay::run(
    routing::SchemeKind kind, routing::Flow flow,
    const routing::SchemeParams& params, routing::DecisionMemo* memo,
    std::span<const std::size_t> stops) const {
  auto scheme = routing::makeScheme(kind, *overlay_, flow, params);
  if (memo != nullptr)
    scheme->setDecisionMemo(memo, memo->contextKey(kind, flow, params));
  DecisionViews views(*trace_, *index_, staleness_);
  scheme->initialize(views.baseline());
  const routing::SchemeState initial = scheme->saveState();
  std::size_t previous = 0;
  for (const std::size_t stop : stops) {
    if (stop <= previous || stop > trace_->intervalCount())
      throw std::out_of_range("DecisionReplay::run: stops must ascend in "
                              "(0, intervalCount]");
    previous = stop;
  }

  std::vector<routing::DecisionCheckpoint> checkpoints;
  checkpoints.reserve(stops.size());
  std::uint64_t decisions = 0;
  std::uint64_t intervals = 0;
  const bool targeted = kind == routing::SchemeKind::TargetedRedundancy;
  std::optional<TargetedRecovery> recovery;
  if (targeted) {
    recovery.emplace(*scheme, views, deviatingIntervals_, staleness_);
    if (!recovery->applies()) recovery.reset();
  }
  if (recovery) {
    std::size_t floor = 0;
    for (const std::size_t stop : stops) {
      checkpoints.push_back(recovery->at(
          stop, floor,
          checkpoints.empty() ? initial : checkpoints.back().state));
      intervals += stop - recovery->lowest();
      floor = stop;
    }
    decisions = recovery->decisions();
  } else {
    // A select on the fingerprinted baseline view returns a cached-graph
    // scheme to its initial state -- unless the baseline has no timely
    // route, when it keeps whatever graph it had.
    const bool baselineResets = !targeted && !initial.edges.empty();
    const graph::DisseminationGraph* dg = nullptr;
    std::size_t t = 0;
    for (const std::size_t stop : stops) {
      if (baselineResets) {
        const std::size_t restart = lastBaselineDecision(stop);
        if (restart != kNoDecision && restart >= t) {
          scheme->restoreState(initial);
          t = restart;
        }
      }
      if (t < stop) intervals += stop - t;
      // A steady-span jump may carry t past `stop`: the state is at its
      // fixed point across the whole span, so it is the state at `stop`.
      while (t < stop) {
        ++decisions;
        if (views.isBaseline(t)) {
          dg = &scheme->select(views.baseline());
          if (scheme->steadyOnBaseline()) {
            t = nextDeviatingDecision(t + 1);
            continue;
          }
        } else {
          dg = &scheme->select(views.at(t));
        }
        ++t;
      }
      checkpoints.push_back({scheme->saveState(), dg->edges()});
    }
  }
  decisions_.fetch_add(decisions, std::memory_order_relaxed);
  intervals_.fetch_add(intervals, std::memory_order_relaxed);
  return checkpoints;
}

PlaybackEngine::PlaybackEngine(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               PlaybackParams params, std::size_t deliveredK)
    : overlay_(&overlay),
      trace_(&trace),
      params_(params),
      deliveredK_(deliveredK),
      conditionIndex_(trace),
      replay_(overlay, trace, conditionIndex_,
              static_cast<std::size_t>(std::max(params.viewStaleness, 0))) {
  if (trace.edgeCount() != overlay.edgeCount())
    throw std::invalid_argument(
        "PlaybackEngine: trace edge count does not match overlay");
  if (params_.viewStaleness < 0)
    throw std::invalid_argument("PlaybackEngine: negative staleness");
  // 0 would score every lossy interval 1 - 0/0 = NaN, a negative count
  // as a certain miss.
  if (params_.mcSamples < 1)
    throw std::invalid_argument(
        "PlaybackEngine: Monte-Carlo sample count must be at least 1");
}

std::vector<routing::DecisionCheckpoint> PlaybackEngine::replayCheckpoints(
    routing::SchemeKind kind, routing::Flow flow,
    const routing::SchemeParams& schemeParams,
    std::span<const std::size_t> stops) const {
  const std::int64_t t0 = params_.collectStageTimings ? util::nowNanos() : 0;
  std::vector<routing::DecisionCheckpoint> checkpoints =
      replay_.run(kind, flow, schemeParams, &decisionMemo_, stops);
  if (params_.collectStageTimings) {
    stageTimings_.memoNs.fetch_add(
        static_cast<std::uint64_t>(util::nowNanos() - t0),
        std::memory_order_relaxed);
  }
  return checkpoints;
}

PlaybackEngine::ScoreSpec PlaybackEngine::flowSpec(
    const mcast::Group& unit, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last) {
  ScoreSpec spec = groupSpec(unit, mcast::groupEquivalent(kind),
                             schemeParams, first, last);
  spec.names = &kFlowNames;
  spec.schemeLabel = routing::schemeName(kind);
  return spec;
}

PlaybackEngine::ScoreSpec PlaybackEngine::groupSpec(
    const mcast::Group& group, mcast::GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last) {
  ScoreSpec spec;
  spec.group = &group;
  spec.kind = kind;
  spec.schemeParams = &schemeParams;
  spec.names = &kGroupNames;
  spec.schemeLabel = mcast::groupSchemeName(kind);
  spec.first = first;
  spec.last = last;
  return spec;
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
  const mcast::Group unit = mcast::oneReceiverGroup(flow);
  ScoreSpec spec = flowSpec(unit, kind, schemeParams, first, last);
  spec.telemetry = telemetry;
  return finalizePartial(flow, kind, score(spec));
}

std::vector<double> PlaybackEngine::missTimeline(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last) const {
  const mcast::Group unit = mcast::oneReceiverGroup(flow);
  ScoreSpec spec = flowSpec(unit, kind, schemeParams, first, last);
  std::vector<double> timeline;
  timeline.reserve(last > first ? last - first : 0);
  spec.timelineOut = &timeline;
  score(spec);
  return timeline;
}

RunPartial PlaybackEngine::runChunkPartial(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, const routing::DecisionCheckpoint* start,
    trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  const mcast::Group unit = mcast::oneReceiverGroup(flow);
  ScoreSpec spec = flowSpec(unit, kind, schemeParams, first, last);
  // Static kinds carry no decision state to restore.
  const bool restore = first > 0 && mcast::isAdaptive(spec.kind);
  if ((first == 0 && start != nullptr) || (restore && start == nullptr))
    throw std::invalid_argument(
        "PlaybackEngine::runChunkPartial: a start checkpoint is required "
        "exactly when first > 0 (optional for static kinds)");
  spec.chunk = true;
  spec.starts = {&start, restore ? 1u : 0u};
  spec.decisionSource = decisionSource;
  spec.truthSource = truthSource;
  spec.telemetry = telemetry;
  return score(spec);
}

RunPartial PlaybackEngine::runChunkPartial(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  std::vector<routing::DecisionCheckpoint> start;
  if (first > 0) {
    const std::array<std::size_t, 1> stops{first};
    start = replayCheckpoints(kind, flow, schemeParams, stops);
  }
  return runChunkPartial(flow, kind, schemeParams, first, last,
                         start.empty() ? nullptr : &start[0], decisionSource,
                         truthSource, telemetry);
}

FlowSchemeResult PlaybackEngine::finalizePartial(routing::Flow flow,
                                                 routing::SchemeKind kind,
                                                 RunPartial&& total) const {
  total.resize(1);
  FlowSchemeResult result;
  result.flow = flow;
  result.scheme = kind;
  result.unavailability = total.missAllMean.mean();
  result.unavailableSeconds = total.unavailableAllSeconds;
  result.problematicIntervals = total.problematicIntervals;
  result.averageCost = total.costStats.mean();
  result.averageLatencyUs = total.receiverLatency[0].mean();
  result.problems = std::move(total.problems);
  result.intervalLatenciesUs = std::move(total.intervalLatenciesUs);
  return result;
}

GroupSchemeResult PlaybackEngine::run(
    const mcast::Group& group, mcast::GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams,
    telemetry::Telemetry* telemetry) const {
  return runRange(group, kind, schemeParams, 0, trace_->intervalCount(),
                  telemetry);
}

GroupSchemeResult PlaybackEngine::runRange(
    const mcast::Group& group, mcast::GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, telemetry::Telemetry* telemetry) const {
  ScoreSpec spec = groupSpec(group, kind, schemeParams, first, last);
  spec.telemetry = telemetry;
  return finalizePartial(group, kind, score(spec));
}

RunPartial PlaybackEngine::runChunkPartial(
    const mcast::Group& group, mcast::GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last,
    std::span<const routing::DecisionCheckpoint* const> receiverStarts,
    trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  if (receiverStarts.empty() == (first > 0 && mcast::isAdaptive(kind)))
    throw std::invalid_argument(
        "PlaybackEngine::runChunkPartial: receiver checkpoints are "
        "required exactly when first > 0 and the kind is adaptive");
  ScoreSpec spec = groupSpec(group, kind, schemeParams, first, last);
  spec.chunk = true;
  spec.starts = receiverStarts;
  spec.decisionSource = decisionSource;
  spec.truthSource = truthSource;
  spec.telemetry = telemetry;
  return score(spec);
}

RunPartial PlaybackEngine::runChunkPartial(
    const mcast::Group& group, mcast::GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  std::vector<std::vector<routing::DecisionCheckpoint>> checkpoints;
  std::vector<const routing::DecisionCheckpoint*> starts;
  if (first > 0 && mcast::isAdaptive(kind)) {
    const std::array<std::size_t, 1> stops{first};
    for (std::size_t i = 0; i < group.receivers.size(); ++i) {
      checkpoints.push_back(replayCheckpoints(
          mcast::unicastEquivalent(kind), mcast::receiverFlow(group, i),
          mcast::receiverSchemeParams(group, i, schemeParams), stops));
    }
    for (const auto& receiver : checkpoints) starts.push_back(&receiver[0]);
  }
  return runChunkPartial(group, kind, schemeParams, first, last, starts,
                         decisionSource, truthSource, telemetry);
}

GroupSchemeResult PlaybackEngine::finalizePartial(const mcast::Group& group,
                                                  mcast::GroupSchemeKind kind,
                                                  RunPartial&& total) const {
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
    out.deadline = mcast::receiverDeadline(group, r, params_.delivery.deadline);
    out.unavailability = total.receiverMiss[r].mean();
    out.unavailableSeconds = total.receiverUnavailableSeconds[r];
    out.problematicIntervals = total.receiverProblematic[r];
    out.averageLatencyUs = total.receiverLatency[r].mean();
  }
  result.problems = std::move(total.problems);
  return result;
}

// dgcheck: hot
RunPartial PlaybackEngine::score(const ScoreSpec& spec) const {
  if (spec.first > spec.last || spec.last > trace_->intervalCount())
    throw std::out_of_range("PlaybackEngine: bad interval range");
  if (!params_.conditionCursor &&
      (spec.decisionSource != nullptr || spec.truthSource != nullptr))
    throw std::logic_error(
        "PlaybackEngine: condition sources require conditionCursor mode");
  // dgcheck: setup begin
  const mcast::Group& group = *spec.group;
  const std::size_t receiverCount = group.receivers.size();
  auto scheme = mcast::makeGroupScheme(spec.kind, *overlay_, group,
                                       *spec.schemeParams);
  scheme->attachDecisionMemo(&decisionMemo_);
  const routing::NetworkView baselineView =
      routing::NetworkView::baseline(*trace_);
  scheme->initialize(baselineView);
  if (!spec.starts.empty()) scheme->restoreReceivers(spec.starts);

  // Replay cursors: the decision cursor tracks the (stale) interval the
  // scheme sees, the truth cursor tracks the interval being scored. A
  // null source replays from the in-memory trace.
  std::optional<trace::ConditionTimeline> decisionCursor;
  std::optional<trace::ConditionTimeline> truthCursor;
  if (spec.decisionSource != nullptr) {
    decisionCursor.emplace(*spec.decisionSource);
  } else {
    decisionCursor.emplace(*trace_);
  }
  if (spec.truthSource != nullptr) {
    truthCursor.emplace(*spec.truthSource);
  } else {
    truthCursor.emplace(*trace_);
  }

  // Per-receiver deadlines resolved once per range.
  std::vector<util::SimTime> deadlines(receiverCount);
  for (std::size_t r = 0; r < receiverCount; ++r) {
    deadlines[r] = mcast::receiverDeadline(group, r, params_.delivery.deadline);
  }
  // Delivered-to-k bar: 0 means "all receivers".
  const std::size_t kBar = deliveredK_ == 0 || deliveredK_ >= receiverCount
                               ? receiverCount
                               : deliveredK_;

  // Telemetry handles, resolved once per range (null when detached).
  telemetry::Telemetry* telemetry = spec.telemetry;
  telemetry::Counter* intervalsCounter = nullptr;
  telemetry::Counter* mcIntervalsCounter = nullptr;
  telemetry::Counter* mcSamplesCounter = nullptr;
  telemetry::Counter* switchCounter = nullptr;
  telemetry::HistogramMetric* missHistogram = nullptr;
  std::vector<graph::EdgeId> lastSelectedEdges;
  bool haveSelected = false;
  if (telemetry != nullptr) {
    const std::string label = mcast::groupLabel(group);
    scheme->setTelemetry(telemetry, label);
    const telemetry::Labels labels{{spec.names->unitKey, label},
                                   {"scheme", std::string(spec.schemeLabel)}};
    telemetry::MetricsRegistry& metrics = telemetry->metrics;
    intervalsCounter = &metrics.counter(spec.names->intervals, labels);
    mcIntervalsCounter = &metrics.counter(spec.names->mcIntervals, labels);
    mcSamplesCounter = &metrics.counter(spec.names->mcSamples, labels);
    switchCounter = &metrics.counter(spec.names->graphSwitches, labels);
    missHistogram =
        &metrics.histogram(spec.names->missHistogram, 0.0, 1.0, 20, labels);
    if (spec.chunk && spec.first > 0) {
      // GraphSwitch continuity: the previous chunk ended with this
      // selection in force.
      lastSelectedEdges = scheme->current().edges();
      haveSelected = true;
    }
  }

  const bool useCursor = params_.conditionCursor;
  // missTimeline evaluates every interval fresh so each Monte-Carlo
  // interval reflects its own RNG stream; scoring runs reuse the
  // evaluation of clean intervals while the selected graph is unchanged
  // (including Monte-Carlo ones -- identical inputs, identical
  // distribution).
  const bool reuseCleanEvals = spec.timelineOut == nullptr;
  // Steady fast path: while the scheme is at its clean fixed point and
  // the decision view stays on baseline, select() calls are provably
  // no-ops and may be skipped -- but only when nobody can observe them:
  // telemetry counts classifications per call, and missTimeline must
  // evaluate every interval fresh.
  const bool fastPathOk =
      useCursor && telemetry == nullptr && reuseCleanEvals;
  const bool collectLatencies = params_.collectIntervalLatencies;

  RunPartial total;
  RunPartial block;
  const std::size_t blockLen = params_.accumBlockIntervals;
  RunPartial* const acc = blockLen > 0 ? &block : &total;
  acc->resize(receiverCount);

  const double intervalSeconds = util::toSeconds(trace_->intervalLength());
  DeliveryWorkspace workspace;

  // Hot-loop buffers, hoisted so per-interval work never allocates once
  // capacities settle: the fresh interval evaluation (and the clean-reuse
  // copy, read in place while reused), the Monte-Carlo tallies, and the
  // delivered-to-k DP row.
  struct IntervalEval {
    std::vector<double> miss;            ///< per receiver
    std::vector<util::SimTime> arrival;  ///< per receiver, kNever = none
    double missAll = 0.0;
    double missK = 0.0;
    double cost = 0.0;
    bool monteCarlo = false;  ///< the lossy path actually sampled
  };
  IntervalEval fresh;
  IntervalEval cachedEval;
  fresh.miss.resize(receiverCount);
  fresh.arrival.resize(receiverCount);
  std::vector<int> onTimeCounts(receiverCount);
  std::vector<int> deliveredHistogram(receiverCount + 1);
  std::vector<double> dp(receiverCount + 1);

  // Run-local reuse: when the interval is clean and the scheme returns
  // the same graph as last time, the evaluation is unchanged. `cachedDg`
  // short-circuits the edge-list comparison: it is reset on every actual
  // select(), so pointer equality implies the selection was not touched
  // since the cache was filled.
  std::vector<graph::EdgeId> cachedEdges;
  bool cacheValid = false;
  const graph::DisseminationGraph* cachedDg = nullptr;

  const bool timed = params_.collectStageTimings;
  std::uint64_t decodeNs = 0;
  std::uint64_t mcNs = 0;
  std::uint64_t evalNs = 0;
  std::uint64_t memoNs = 0;
  std::uint64_t mergeNs = 0;
  std::int64_t t0 = 0;
  const auto lap = [&t0](std::uint64_t& stage) {
    stage += static_cast<std::uint64_t>(util::nowNanos() - t0);
  };

  const graph::DisseminationGraph* dg = nullptr;
  bool steady = false;

  const auto staleness = static_cast<std::size_t>(params_.viewStaleness);
  // Intervals below this are decided on the baseline view regardless of
  // trace content (the scheme cannot have observed anything yet).
  const std::size_t warmupUntil = (spec.chunk ? 0 : spec.first) + staleness;
  // dgcheck: setup end
  for (std::size_t t = spec.first; t < spec.last; ++t) {
    if (blockLen > 0 && t != spec.first && t % blockLen == 0) {
      // Fold the finished accumulation block and reset run-local reuse:
      // chunk-parallel partials start cold at these exact boundaries, and
      // bit-identical results require identical reuse decisions.
      if (timed) t0 = util::nowNanos();
      total.merge(std::move(block));
      block = RunPartial{};
      block.resize(receiverCount);
      if (timed) lap(mergeNs);
      cacheValid = false;
      cachedDg = nullptr;
    }
    if (telemetry != nullptr) {
      telemetry->now =
          static_cast<util::SimTime>(t) * trace_->intervalLength();
    }
    // --- Decision: what does the scheme believe right now? -------------
    const bool baselineDecision =
        t < warmupUntil || !trace_->hasDeviation(t - staleness);
    if (baselineDecision) {
      if (!(steady && fastPathOk)) {
        if (timed) t0 = util::nowNanos();
        dg = &scheme->select(baselineView);
        steady = scheme->steadyOnBaseline();
        if (timed) lap(memoNs);
        cachedDg = nullptr;
      }
    } else {
      const std::size_t viewInterval = t - staleness;
      if (timed) t0 = util::nowNanos();
      if (useCursor) decisionCursor->seek(viewInterval);
      const routing::NetworkView view =
          useCursor ? routing::NetworkView::borrowing(
                          *decisionCursor,
                          conditionIndex_.contentId(viewInterval))
                    : routing::NetworkView::atInterval(*trace_, viewInterval);
      if (timed) {
        lap(decodeNs);
        t0 = util::nowNanos();
      }
      dg = &scheme->select(view);
      if (timed) lap(memoNs);
      steady = false;
      cachedDg = nullptr;
    }
    if (telemetry != nullptr) {
      if (haveSelected && dg->edges() != lastSelectedEdges) {
        switchCounter->inc();
        telemetry->trace.record(
            telemetry->now, telemetry::TraceEventKind::GraphSwitch, -1,
            group.source, -1, static_cast<double>(dg->edges().size()),
            std::string(spec.schemeLabel));
      }
      lastSelectedEdges = dg->edges();
      haveSelected = true;
    }

    // --- Outcome under the interval's true conditions ------------------
    const bool clean = !trace_->hasDeviation(t);
    const bool reuse = reuseCleanEvals && clean && cacheValid &&
                       (dg == cachedDg || dg->edges() == cachedEdges);
    if (!reuse) {
      IntervalEval& eval = fresh;
      std::span<const double> lossRates;
      std::span<const util::SimTime> latencies;
      std::vector<double> lossBuffer;  // dgcheck: ok(R5): non-cursor fallback; conditionCursor runs never construct these
      std::vector<util::SimTime> latencyBuffer;  // dgcheck: ok(R5): non-cursor fallback; conditionCursor runs never construct these
      if (timed) t0 = util::nowNanos();
      if (useCursor) {
        truthCursor->seek(t);
        lossRates = truthCursor->lossRates();
        latencies = truthCursor->latencies();
      } else {
        lossBuffer = trace_->lossRatesAt(t);
        latencyBuffer = trace_->latenciesAt(t);
        lossRates = lossBuffer;
        latencies = latencyBuffer;
      }
      if (timed) lap(decodeNs);

      if (nearLossless(*dg, lossRates, params_.lossEpsilon)) {
        if (timed) t0 = util::nowNanos();
        missGroupNearLossless(*dg, group.receivers, deadlines, lossRates,
                              latencies, params_.delivery, workspace,
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
        if (timed) lap(evalNs);
      } else {
        if (timed) t0 = util::nowNanos();
        util::Rng rng(unitMixSeed(params_.seed, group, spec.kind, t));
        onTimeCountsMCGroup(*dg, group.receivers, deadlines, lossRates,
                            latencies, params_.delivery, params_.mcSamples,
                            rng, workspace, onTimeCounts,
                            deliveredHistogram);
        const auto samples = static_cast<double>(params_.mcSamples);
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
        eval.missK = 1.0 - static_cast<double>(deliveredAtLeastK) / samples;
        groupCleanArrivals(*dg, latencies, group.receivers, workspace,
                           eval.arrival);
        eval.monteCarlo = true;
        if (timed) lap(mcNs);
      }
      eval.cost =
          static_cast<double>(groupTransmissionCost(*dg, latencies, workspace));

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
    const IntervalEval& eval = reuse ? cachedEval : fresh;
    if (intervalsCounter != nullptr) {
      intervalsCounter->inc();
      missHistogram->observe(eval.missAll);
    }
    if (spec.timelineOut != nullptr) spec.timelineOut->push_back(eval.missAll);  // dgcheck: ok(R5): diagnostic miss-timeline output; absent in benchmark runs

    for (std::size_t r = 0; r < receiverCount; ++r) {
      acc->receiverMiss[r].add(eval.miss[r], 1.0);
      if (eval.arrival[r] != util::kNever) {
        acc->receiverLatency[r].add(static_cast<double>(eval.arrival[r]));
      }
      acc->receiverUnavailableSeconds[r] += eval.miss[r] * intervalSeconds;
      if (eval.miss[r] > params_.problematicThreshold) {
        ++acc->receiverProblematic[r];
      }
    }
    if (collectLatencies && eval.arrival[0] != util::kNever) {
      acc->intervalLatenciesUs.push_back(  // dgcheck: ok(R5): opt-in interval-latency capture; amortized push on the diagnostic path
          static_cast<double>(eval.arrival[0]));
    }
    acc->missAllMean.add(eval.missAll, 1.0);
    acc->missKMean.add(eval.missK, 1.0);
    acc->costStats.add(eval.cost);
    acc->unavailableAllSeconds += eval.missAll * intervalSeconds;
    if (eval.missAll > params_.problematicThreshold) {
      ++acc->problematicIntervals;
      acc->problems.push_back(ProblematicInterval{t, eval.missAll});  // dgcheck: ok(R5): bounded by problematic intervals; diagnostic record with amortized growth
    }
  }
  if (blockLen > 0) {
    if (timed) t0 = util::nowNanos();
    total.merge(std::move(block));
    if (timed) lap(mergeNs);
  }
  total.deliveryWork += workspace.work;
  if (timed) {
    stageTimings_.decodeNs.fetch_add(decodeNs, std::memory_order_relaxed);
    stageTimings_.mcNs.fetch_add(mcNs, std::memory_order_relaxed);
    stageTimings_.evalNs.fetch_add(evalNs, std::memory_order_relaxed);
    stageTimings_.memoNs.fetch_add(memoNs, std::memory_order_relaxed);
    stageTimings_.mergeNs.fetch_add(mergeNs, std::memory_order_relaxed);
  }
  return total;
}

}  // namespace dg::playback
