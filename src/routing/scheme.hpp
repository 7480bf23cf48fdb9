// Routing scheme interface.
//
// Every routing approach in the paper -- single path, k disjoint paths,
// targeted-redundancy dissemination graphs, time-constrained flooding --
// is expressed the same way: given the current (stale) network view,
// produce the dissemination graph to flood the next packets on. The
// playback engine and the live transport service drive schemes through
// this one interface, which is what makes the head-to-head evaluation
// apples-to-apples.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "graph/graph.hpp"
#include "routing/network_view.hpp"
#include "routing/problem_detector.hpp"
#include "telemetry/telemetry.hpp"

namespace dg::routing {

/// A unidirectional communication flow between two overlay nodes.
struct Flow {
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  bool operator==(const Flow&) const = default;
};

enum class SchemeKind {
  StaticSinglePath,
  DynamicSinglePath,
  StaticTwoDisjoint,
  DynamicTwoDisjoint,
  TargetedRedundancy,
  TimeConstrainedFlooding,
};

/// Canonical short name ("static-single", "targeted", ...).
std::string_view schemeName(SchemeKind kind);
/// Parses a canonical name; throws std::invalid_argument on unknown.
SchemeKind parseSchemeKind(std::string_view name);
/// All kinds in evaluation order (single -> ... -> flooding).
std::vector<SchemeKind> allSchemeKinds();

struct SchemeParams {
  ViewParams view;
  DetectorParams detector;
  /// One-way delivery deadline (the paper's 65 ms for 130 ms RTT).
  util::SimTime deadline = util::milliseconds(65);
  /// Number of disjoint paths for the disjoint-path schemes.
  int disjointPaths = 2;
  /// Targeted redundancy: once a source/destination problem is detected,
  /// keep the targeted graph for this many further decision intervals
  /// after the detector stops firing (flap damping -- intermittent
  /// problems briefly look healthy between bursts, and falling back too
  /// eagerly forfeits the redundancy exactly when it is needed).
  int holdDownIntervals = 3;

  bool operator==(const SchemeParams&) const = default;
};

class DecisionMemo;

/// Targeted redundancy's decision state as a value: everything its
/// select() reads back from its own earlier calls. The bounded decision
/// replay (playback::DecisionReplay) rebuilds it at a window start instead
/// of walking the decisions from interval 0.
struct SchemeState {
  /// The middle-problem fallback graph.
  std::vector<graph::EdgeId> edges;
  /// The weights of the last middle-problem re-plan.
  std::vector<util::SimTime> weights;
  /// The hold-down state machine.
  FlowProblem lastProblem;
  int sourceHold = 0;
  int destinationHold = 0;
  bool steadyOnBaseline = false;

  bool operator==(const SchemeState&) const = default;
};

class RoutingScheme {
 public:
  RoutingScheme(const graph::Graph& overlay, Flow flow, SchemeParams params)
      : overlay_(&overlay), flow_(flow), params_(params) {}
  virtual ~RoutingScheme() = default;
  RoutingScheme(const RoutingScheme&) = delete;
  RoutingScheme& operator=(const RoutingScheme&) = delete;

  virtual std::string_view name() const = 0;

  /// Computes any precomputed structure from the healthy baseline view.
  /// Must be called before select().
  virtual void initialize(const NetworkView& baselineView) = 0;

  /// Returns the dissemination graph to use while `view` describes the
  /// believed network state. The reference stays valid until the next
  /// select()/initialize() call on this scheme.
  virtual const graph::DisseminationGraph& select(const NetworkView& view) = 0;

  /// True when the scheme has reached a fixed point under clean
  /// conditions: another select() on the fingerprinted baseline view
  /// would return the current selection unchanged and leave every
  /// decision-affecting state variable unchanged. The decision replay
  /// (playback::DecisionReplay) uses this to jump clean steady spans in
  /// one step. Schemes that cannot promise a fixed point return false
  /// (the default), which is always safe.
  virtual bool steadyOnBaseline() const { return false; }

  /// The problem-detector classification of the last select(), for the
  /// schemes that classify (targeted redundancy); nullopt otherwise. It
  /// is what recordClassification() counted for that call.
  virtual std::optional<FlowProblem> classification() const {
    return std::nullopt;
  }

  /// The decision state as a value, for the schemes whose history the
  /// bounded decision replay rebuilds (targeted redundancy). The
  /// cached-graph kinds need none: a select on the fingerprinted baseline
  /// view returns them to their initial state, so the replay re-decides
  /// from their last baseline decision instead. restoreState() must be
  /// applied to a freshly initialize()d scheme of the same (kind, flow,
  /// params); that scheme then selects exactly as the one whose state was
  /// saved would have. The base versions save nothing and reject a
  /// restore.
  virtual SchemeState saveState() const { return {}; }
  virtual void restoreState(const SchemeState& state);

  const graph::Graph& overlay() const { return *overlay_; }
  Flow flow() const { return flow_; }
  const SchemeParams& params() const { return params_; }

  /// Attaches telemetry (nullable). `flowLabel` identifies the flow in
  /// metric labels (the live service uses the flow id, the playback
  /// engine "src->dst"). Schemes stamp trace events with
  /// `telemetry->now`, which the driving layer keeps current.
  void setTelemetry(telemetry::Telemetry* telemetry, std::string flowLabel) {
    telemetry_ = telemetry;
    flowLabel_ = std::move(flowLabel);
    classificationCounters_.fill(nullptr);
  }
  telemetry::Telemetry* telemetry() const { return telemetry_; }

  /// Attaches a shared decision memo (nullable). `contextKey` must come
  /// from DecisionMemo::contextKey for this scheme's exact (kind, flow,
  /// params). Only decisions that are pure functions of a fingerprinted
  /// view go through the memo: the dynamic schemes' re-plans, and the
  /// targeted scheme's middle-problem re-plan, which is
  /// dynamic-two-disjoint's re-plan and also reads that context's table
  /// (see DecisionMemo). The targeted hold-down state machine itself never
  /// does. Selection results are bit-identical with and without a memo
  /// attached.
  void setDecisionMemo(DecisionMemo* memo, std::uint64_t contextKey) {
    memo_ = memo;
    memoContext_ = contextKey;
  }

 protected:
  /// Counts a problem-detector classification under
  /// `dg_routing_classifications_total{flow,scheme,class}` and records a
  /// ProblemClassified trace event whenever the classification changes.
  void recordClassification(const FlowProblem& detected);

  const graph::Graph* overlay_;
  Flow flow_;
  SchemeParams params_;

  telemetry::Telemetry* telemetry_ = nullptr;
  std::string flowLabel_;

  DecisionMemo* memo_ = nullptr;
  std::uint64_t memoContext_ = 0;

 private:
  /// Lazily resolved counter per classification bitmask
  /// (source | destination<<1 | middle<<2).
  std::array<telemetry::Counter*, 8> classificationCounters_{};
  FlowProblem lastRecorded_;
  bool haveRecorded_ = false;
};

/// Human-readable classification label: "none", "source",
/// "source+destination", ... (flags joined in source/destination/middle
/// order).
std::string flowProblemLabel(const FlowProblem& problem);

/// Creates a scheme instance for one flow.
std::unique_ptr<RoutingScheme> makeScheme(SchemeKind kind,
                                          const graph::Graph& overlay,
                                          Flow flow,
                                          const SchemeParams& params);

}  // namespace dg::routing
