#include "routing/scheme.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "graph/disjoint_paths.hpp"
#include "graph/shortest_path.hpp"
#include "routing/decision_memo.hpp"
#include "routing/targeted_graphs.hpp"

namespace dg::routing {

std::string_view schemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::StaticSinglePath: return "static-single";
    case SchemeKind::DynamicSinglePath: return "dynamic-single";
    case SchemeKind::StaticTwoDisjoint: return "static-two-disjoint";
    case SchemeKind::DynamicTwoDisjoint: return "dynamic-two-disjoint";
    case SchemeKind::TargetedRedundancy: return "targeted";
    case SchemeKind::TimeConstrainedFlooding: return "flooding";
  }
  return "unknown";
}

SchemeKind parseSchemeKind(std::string_view name) {
  for (const SchemeKind kind : allSchemeKinds()) {
    if (schemeName(kind) == name) return kind;
  }
  std::string valid;
  for (const SchemeKind kind : allSchemeKinds()) {
    if (!valid.empty()) valid += ", ";
    valid += schemeName(kind);
  }
  throw std::invalid_argument("unknown routing scheme: " + std::string(name) +
                              " (valid: " + valid + ")");
}

std::vector<SchemeKind> allSchemeKinds() {
  return {SchemeKind::StaticSinglePath,   SchemeKind::DynamicSinglePath,
          SchemeKind::StaticTwoDisjoint,  SchemeKind::DynamicTwoDisjoint,
          SchemeKind::TargetedRedundancy, SchemeKind::TimeConstrainedFlooding};
}

std::string flowProblemLabel(const FlowProblem& problem) {
  std::string label;
  const auto append = [&label](std::string_view flag) {
    if (!label.empty()) label += '+';
    label += flag;
  };
  if (problem.source) append("source");
  if (problem.destination) append("destination");
  if (problem.middle) append("middle");
  return label.empty() ? "none" : label;
}

void RoutingScheme::restoreState(const SchemeState&) {
  throw std::logic_error(std::string(name()) +
                         ": this scheme has no decision state to restore");
}

void RoutingScheme::recordClassification(const FlowProblem& detected) {
  if (telemetry_ == nullptr) return;
  const std::size_t index = (detected.source ? 1u : 0u) |
                            (detected.destination ? 2u : 0u) |
                            (detected.middle ? 4u : 0u);
  telemetry::Counter*& counter = classificationCounters_[index];
  if (counter == nullptr) {
    counter = &telemetry_->metrics.counter(
        "dg_routing_classifications_total",
        {{"flow", flowLabel_},
         {"scheme", std::string(name())},
         {"class", flowProblemLabel(detected)}});
  }
  counter->inc();
  if (!haveRecorded_ || !(detected == lastRecorded_)) {
    telemetry_->trace.record(telemetry_->now,
                             telemetry::TraceEventKind::ProblemClassified,
                             -1, flow_.source, -1, 0.0,
                             flowProblemLabel(detected));
    lastRecorded_ = detected;
    haveRecorded_ = true;
  }
}

namespace {

using graph::DisseminationGraph;

/// Makes `dg` the graph of exactly `edges` (same overlay and flow);
/// leaves it alone when it already is. Graphs are equal iff their member
/// edges are, so a memoized or checkpointed edge list reproduces the
/// graph it came from.
void assignEdges(DisseminationGraph& dg,
                 const std::vector<graph::EdgeId>& edges) {
  if (dg.edges() == edges) return;
  DisseminationGraph next(dg.overlay(), dg.source(), dg.destination());
  for (const graph::EdgeId e : edges) next.addEdge(e);
  dg = std::move(next);
}

/// Deadline-constrained path selection shared by the dynamic schemes.
///
/// Routing weights penalize lossy links, which can make a detour look
/// attractive even though its *actual* latency violates the deadline --
/// and a clean route that arrives late is strictly worse than a lossy
/// route that can still deliver (loss is probabilistic, lateness is
/// certain). So: compute up to k node-disjoint paths on the penalized
/// weights, keep only those whose true latency meets the deadline, and if
/// fewer than k survive, top up with deadline-feasible paths computed on
/// pure latencies (loss-blind), which is exactly what the static schemes
/// would use. `penalized` is the view's routing weights; the min-cost-flow
/// scratch comes from the calling scheme's workspace.
std::vector<graph::Path> timelyDisjointPaths(
    const graph::Graph& overlay, Flow flow, const NetworkView& view,
    std::span<const util::SimTime> penalized, const SchemeParams& params,
    int k, graph::DisjointPathsWorkspace& ws) {
  const std::span<const util::SimTime> latencies = view.latencies();
  const auto feasible = [&](const graph::Path& path) {
    const util::SimTime latency = pathLatency(overlay, path, latencies);
    return latency != util::kNever && latency <= params.deadline;
  };

  std::vector<graph::Path> chosen;
  for (graph::Path& path :
       graph::nodeDisjointPaths(overlay, flow.source, flow.destination,
                                penalized, k, ws)
           .paths) {
    if (feasible(path)) chosen.push_back(std::move(path));
  }
  if (static_cast<int>(chosen.size()) < k) {
    for (graph::Path& path :
         graph::nodeDisjointPaths(overlay, flow.source, flow.destination,
                                  latencies, k, ws)
             .paths) {
      if (static_cast<int>(chosen.size()) >= k) break;
      if (!feasible(path)) continue;
      if (std::find(chosen.begin(), chosen.end(), path) != chosen.end())
        continue;
      chosen.push_back(std::move(path));
    }
  }
  return chosen;
}

/// Shared helper state for schemes whose route computation is a pure
/// function of the view: a current graph, a same-view fast path, and the
/// shared decision memo.
///
/// The same-view fast path has two tiers. Fingerprinted views (the
/// playback cursor) compare content ids in O(1); unfingerprinted views
/// (the live monitor, tests) fall back to comparing the computed weight
/// vector, as before. On a fingerprint miss the shared DecisionMemo (when
/// attached) is consulted before recomputing: a hit replays the memoized
/// edge list -- or, for a memoized no-route decision, keeps the previous
/// graph, exactly as recomputation would. All three paths produce
/// bit-identical selections.
class CachedGraphScheme : public RoutingScheme {
 public:
  CachedGraphScheme(const graph::Graph& overlay, Flow flow,
                    SchemeParams params)
      : RoutingScheme(overlay, flow, params),
        current_(overlay, flow.source, flow.destination) {}

 public:
  /// Fixed point iff the last decision (initialize or select) was made on
  /// the fingerprinted clean-baseline view: selectDynamic's same-content
  /// fast path then returns current_ without touching any state, and the
  /// static variants never mutate state in select() at all. Dynamic
  /// schemes driven with unfingerprinted views report false (safe: the
  /// decision replay only ever sees fingerprinted views).
  bool steadyOnBaseline() const override {
    return lastFingerprint_ == NetworkView::kBaselineFingerprint;
  }

 protected:
  DisseminationGraph current_;
  std::vector<util::SimTime> cachedWeights_;
  std::vector<util::SimTime> weightsScratch_;
  std::vector<graph::EdgeId> edgeScratch_;
  std::uint64_t lastFingerprint_ = NetworkView::kNoFingerprint;
  /// Re-planning scratch: the view's routing weights and the disjoint-path
  /// solver's network, reused by every recompute of this scheme.
  std::vector<util::SimTime> penalizedScratch_;
  graph::DisjointPathsWorkspace disjointWs_;

  std::vector<graph::Path> timelyPaths(const NetworkView& view, int k) {
    view.routingWeightsInto(params_.view, penalizedScratch_);
    return timelyDisjointPaths(*overlay_, flow_, view, penalizedScratch_,
                               params_, k, disjointWs_);
  }

  /// Records initialize()'s decision. cachedWeights_ holds the weights of
  /// the last *unfingerprinted* decision only (fingerprinted ones clear
  /// it, as selectDynamic does), so a select on the fingerprinted baseline
  /// leaves exactly the state initialize() left -- which is what lets the
  /// decision replay restart a context from its last baseline decision.
  void noteDecision(const NetworkView& view) {
    lastFingerprint_ = view.fingerprint();
    if (view.hasFingerprint()) {
      cachedWeights_.clear();
    } else {
      view.routingWeightsInto(params_.view, cachedWeights_);
    }
  }

  /// Selection driver for dynamic schemes. `recompute(view)` must install
  /// the newly selected graph into current_ and return true, or return
  /// false when the view offers no timely route (keeping the previous
  /// graph -- sending on a possibly-degraded route beats sending on
  /// nothing).
  template <typename RecomputeFn>
  const DisseminationGraph& selectDynamic(const NetworkView& view,
                                          RecomputeFn&& recompute) {
    const std::uint64_t fp = view.fingerprint();
    if (fp != NetworkView::kNoFingerprint) {
      if (fp == lastFingerprint_) return current_;
      if (memo_ != nullptr) {
        if (const auto id =
                memo_->findDecision(memoContext_, fp, edgeScratch_)) {
          if (*id != DecisionMemo::kNoRoute)
            assignEdges(current_, edgeScratch_);
          cachedWeights_.clear();
          lastFingerprint_ = fp;
          return current_;
        }
      }
      const bool found = recompute(view);
      if (memo_ != nullptr) {
        memo_->storeDecision(
            memoContext_, fp,
            found ? memo_->internEdgeList(memoContext_, current_.edges())
                  : DecisionMemo::kNoRoute);
      }
      cachedWeights_.clear();
      lastFingerprint_ = fp;
      return current_;
    }
    // Unfingerprinted view: compare the computed weight vector.
    lastFingerprint_ = NetworkView::kNoFingerprint;
    view.routingWeightsInto(params_.view, weightsScratch_);
    if (weightsScratch_ == cachedWeights_ && !cachedWeights_.empty())
      return current_;
    std::swap(cachedWeights_, weightsScratch_);
    recompute(view);
    return current_;
  }
};

// ---------------------------------------------------------------------
// Single path.
// ---------------------------------------------------------------------

class SinglePathScheme : public CachedGraphScheme {
 public:
  SinglePathScheme(const graph::Graph& overlay, Flow flow,
                   SchemeParams params, bool dynamic)
      : CachedGraphScheme(overlay, flow, params), dynamic_(dynamic) {}

  std::string_view name() const override {
    return dynamic_ ? schemeName(SchemeKind::DynamicSinglePath)
                    : schemeName(SchemeKind::StaticSinglePath);
  }

  // dgcheck: cold: runs once per (flow, scheme, chunk) task before interval playback
  void initialize(const NetworkView& baselineView) override {
    recompute(baselineView);
    noteDecision(baselineView);
  }

  // dgcheck: cold: decision path; steady-state selects are fixed-point no-ops, and a re-plan allocates only its returned paths and graph (solver scratch lives in the scheme's DisjointPathsWorkspace)
  const DisseminationGraph& select(const NetworkView& view) override {
    if (!dynamic_) return current_;
    return selectDynamic(view,
                         [this](const NetworkView& v) { return recompute(v); });
  }

 private:
  bool recompute(const NetworkView& view) {
    const auto paths = timelyPaths(view, 1);
    // When the view offers no timely route, keep the previous graph:
    // sending on a possibly-degraded route beats sending on nothing.
    if (paths.empty()) return false;
    DisseminationGraph next(*overlay_, flow_.source, flow_.destination);
    next.addPath(paths.front());
    current_ = std::move(next);
    return true;
  }

  bool dynamic_;
};

// ---------------------------------------------------------------------
// k node-disjoint paths.
// ---------------------------------------------------------------------

class DisjointPathsScheme : public CachedGraphScheme {
 public:
  DisjointPathsScheme(const graph::Graph& overlay, Flow flow,
                      SchemeParams params, bool dynamic)
      : CachedGraphScheme(overlay, flow, params), dynamic_(dynamic) {}

  std::string_view name() const override {
    return dynamic_ ? schemeName(SchemeKind::DynamicTwoDisjoint)
                    : schemeName(SchemeKind::StaticTwoDisjoint);
  }

  // dgcheck: cold: runs once per (flow, scheme, chunk) task before interval playback
  void initialize(const NetworkView& baselineView) override {
    recompute(baselineView);
    noteDecision(baselineView);
  }

  // dgcheck: cold: decision path; steady-state selects are fixed-point no-ops, and a re-plan allocates only its returned paths and graph (solver scratch lives in the scheme's DisjointPathsWorkspace)
  const DisseminationGraph& select(const NetworkView& view) override {
    if (!dynamic_) return current_;
    return selectDynamic(view,
                         [this](const NetworkView& v) { return recompute(v); });
  }

 private:
  bool recompute(const NetworkView& view) {
    const auto paths = timelyPaths(view, params_.disjointPaths);
    if (paths.empty()) return false;  // keep previous graph
    DisseminationGraph next(*overlay_, flow_.source, flow_.destination);
    for (const graph::Path& path : paths) next.addPath(path);
    current_ = std::move(next);
    return true;
  }

  bool dynamic_;
};

// ---------------------------------------------------------------------
// Time-constrained flooding: every overlay edge that can contribute an
// on-time delivery under healthy propagation latencies. The structure is
// *static*: reacting to measurements could only remove edges that might
// turn out useful an instant later, and the point of this scheme is to be
// the never-wrong (but prohibitively expensive) upper bound.
// ---------------------------------------------------------------------

class FloodingScheme : public CachedGraphScheme {
 public:
  using CachedGraphScheme::CachedGraphScheme;

  std::string_view name() const override {
    return schemeName(SchemeKind::TimeConstrainedFlooding);
  }

  // dgcheck: cold: runs once per (flow, scheme, chunk) task before interval playback
  void initialize(const NetworkView& baselineView) override {
    // Pruning uses plain latencies (not loss-penalized weights): flooding
    // never avoids lossy links, it only refuses to pay for edges that
    // cannot possibly deliver in time.
    const std::vector<util::SimTime> latencies(
        baselineView.latencies().begin(), baselineView.latencies().end());
    current_ =
        graph::floodingGraph(*overlay_, flow_.source, flow_.destination);
    current_.pruneDeadlineInfeasible(latencies, params_.deadline);
  }

  // dgcheck: cold: static scheme; select never re-plans after initialize
  const DisseminationGraph& select(const NetworkView&) override {
    return current_;
  }

  // Flooding never looks at the view (initialize() does not call
  // noteDecision, so the inherited fingerprint check would wrongly say
  // "not steady").
  bool steadyOnBaseline() const override { return true; }
};

// ---------------------------------------------------------------------
// Targeted redundancy: precomputed graphs + problem-class switching.
// ---------------------------------------------------------------------

class TargetedScheme : public RoutingScheme {
 public:
  TargetedScheme(const graph::Graph& overlay, Flow flow, SchemeParams params)
      : RoutingScheme(overlay, flow, params),
        detector_(overlay, params.detector),
        graphs_{DisseminationGraph(overlay, flow.source, flow.destination),
                DisseminationGraph(overlay, flow.source, flow.destination),
                DisseminationGraph(overlay, flow.source, flow.destination),
                DisseminationGraph(overlay, flow.source, flow.destination)},
        dynamicFallback_(overlay, flow.source, flow.destination) {}

  std::string_view name() const override {
    return schemeName(SchemeKind::TargetedRedundancy);
  }

  // dgcheck: cold: runs once per (flow, scheme, chunk) task before interval playback
  void initialize(const NetworkView& baselineView) override {
    const auto weights = baselineView.routingWeights(params_.view);
    graphs_ = buildTargetedGraphs(*overlay_, flow_, weights,
                                  params_.deadline, params_.disjointPaths);
    dynamicFallback_ = graphs_.twoDisjoint;
    dynamicWeights_.clear();
    sourceHold_ = 0;
    destinationHold_ = 0;
    steadyOnBaseline_ = false;
  }

  bool steadyOnBaseline() const override { return steadyOnBaseline_; }

  SchemeState saveState() const override {
    SchemeState state;
    state.edges = dynamicFallback_.edges();
    state.weights = dynamicWeights_;
    state.lastProblem = lastProblem_;
    state.sourceHold = sourceHold_;
    state.destinationHold = destinationHold_;
    state.steadyOnBaseline = steadyOnBaseline_;
    return state;
  }

  void restoreState(const SchemeState& state) override {
    assignEdges(dynamicFallback_, state.edges);
    dynamicWeights_ = state.weights;
    lastProblem_ = state.lastProblem;
    sourceHold_ = state.sourceHold;
    destinationHold_ = state.destinationHold;
    steadyOnBaseline_ = state.steadyOnBaseline;
  }

  // dgcheck: cold: decision path; classification allocates nothing, and only a middle-problem re-plan allocates (its returned paths and graph; solver scratch lives in the scheme's DisjointPathsWorkspace)
  const DisseminationGraph& select(const NetworkView& view) override {
    const FlowProblem detected =
        detector_.classify(view, flow_.source, flow_.destination);
    lastDetected_ = detected;
    recordClassification(detected);
    // Flap damping: hold targeted graphs for holdDownIntervals further
    // decisions after the detector stops firing.
    FlowProblem problem = detected;
    problem.source = detected.source || sourceHold_ > 0;
    problem.destination = detected.destination || destinationHold_ > 0;
    // A negative hold-down acts as 0; clamping keeps the saved counters
    // a function of the last holdDownIntervals decisions.
    const int hold = std::max(params_.holdDownIntervals, 0);
    if (detected.source) {
      sourceHold_ = hold;
    } else if (sourceHold_ > 0) {
      --sourceHold_;
    }
    if (detected.destination) {
      destinationHold_ = hold;
    } else if (destinationHold_ > 0) {
      --destinationHold_;
    }
    // Fixed point check for steadyOnBaseline(): on the baseline view the
    // detector's classification is a pure function of the view, so a
    // repeat select() returns the same graph and leaves state unchanged
    // exactly when no hold-down counter masked the detector this call
    // (problem == detected). That covers both moving parts: a draining
    // hold (problem true, detected false -- including the final drain
    // step, whose *returned* graph is still the targeted one) and the
    // pinned case (detector keeps re-arming the hold, problem ==
    // detected == true, selection stable). A middle problem is stable
    // too because dynamicWeights_ was just brought equal to this view's
    // weights below.
    steadyOnBaseline_ =
        view.fingerprint() == NetworkView::kBaselineFingerprint &&
        problem.source == detected.source &&
        problem.destination == detected.destination;
    lastProblem_ = problem;
    if (problem.source && problem.destination) return graphs_.robust;
    if (problem.source) return graphs_.sourceProblem;
    if (problem.destination) return graphs_.destinationProblem;
    if (problem.middle) {
      // A mid-network problem: recompute two disjoint paths around it
      // (classic dynamic behaviour; middle problems are the minority and
      // rarely hit both precomputed paths, but recomputing is cheap).
      view.routingWeightsInto(params_.view, weightsScratch_);
      if (weightsScratch_ != dynamicWeights_) {
        std::swap(dynamicWeights_, weightsScratch_);
        replanMiddle(view);
      }
      return dynamicFallback_;
    }
    return graphs_.twoDisjoint;
  }

  std::optional<FlowProblem> classification() const override {
    return lastDetected_;
  }

  /// The classification used by the most recent select() (for analysis).
  FlowProblem lastProblem() const { return lastProblem_; }
  const TargetedGraphs& graphs() const { return graphs_; }

 private:
  /// Re-plans the fallback on dynamicWeights_ (the view's routing
  /// weights), consulting the memo for fingerprinted views. The re-plan is
  /// dynamic-two-disjoint's re-plan, so the memo also finds decisions that
  /// scheme made for the same flow and params (DecisionMemo partners).
  /// When the view offers no timely route, the previous fallback stays.
  void replanMiddle(const NetworkView& view) {
    const std::uint64_t fp = view.fingerprint();
    const bool memoized =
        memo_ != nullptr && fp != NetworkView::kNoFingerprint;
    if (memoized) {
      if (const auto id =
              memo_->findDecision(memoContext_, fp, edgeScratch_)) {
        if (*id != DecisionMemo::kNoRoute)
          assignEdges(dynamicFallback_, edgeScratch_);
        return;
      }
    }
    const auto paths =
        timelyDisjointPaths(*overlay_, flow_, view, dynamicWeights_, params_,
                            params_.disjointPaths, disjointWs_);
    if (!paths.empty()) {
      DisseminationGraph next(*overlay_, flow_.source, flow_.destination);
      for (const graph::Path& path : paths) next.addPath(path);
      dynamicFallback_ = std::move(next);
    }
    if (memoized) {
      const std::uint32_t id =
          paths.empty()
              ? DecisionMemo::kNoRoute
              : memo_->internEdgeList(memoContext_, dynamicFallback_.edges());
      memo_->storeDecision(memoContext_, fp, id);
    }
  }

  ProblemDetector detector_;
  TargetedGraphs graphs_;
  DisseminationGraph dynamicFallback_;
  std::vector<util::SimTime> dynamicWeights_;
  std::vector<util::SimTime> weightsScratch_;
  std::vector<graph::EdgeId> edgeScratch_;
  graph::DisjointPathsWorkspace disjointWs_;
  FlowProblem lastDetected_;
  FlowProblem lastProblem_;
  int sourceHold_ = 0;
  int destinationHold_ = 0;
  bool steadyOnBaseline_ = false;
};

}  // namespace

// dgcheck: cold: scheme factory; runs once per (flow, scheme, chunk) task
std::unique_ptr<RoutingScheme> makeScheme(SchemeKind kind,
                                          const graph::Graph& overlay,
                                          Flow flow,
                                          const SchemeParams& params) {
  switch (kind) {
    case SchemeKind::StaticSinglePath:
      return std::make_unique<SinglePathScheme>(overlay, flow, params,
                                                /*dynamic=*/false);
    case SchemeKind::DynamicSinglePath:
      return std::make_unique<SinglePathScheme>(overlay, flow, params,
                                                /*dynamic=*/true);
    case SchemeKind::StaticTwoDisjoint:
      return std::make_unique<DisjointPathsScheme>(overlay, flow, params,
                                                   /*dynamic=*/false);
    case SchemeKind::DynamicTwoDisjoint:
      return std::make_unique<DisjointPathsScheme>(overlay, flow, params,
                                                   /*dynamic=*/true);
    case SchemeKind::TargetedRedundancy:
      return std::make_unique<TargetedScheme>(overlay, flow, params);
    case SchemeKind::TimeConstrainedFlooding:
      return std::make_unique<FloodingScheme>(overlay, flow, params);
  }
  throw std::invalid_argument("makeScheme: unknown kind");
}

}  // namespace dg::routing
