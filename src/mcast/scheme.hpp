// Group routing schemes: one dissemination graph per receiver set.
//
// GroupScheme parallels routing::RoutingScheme but selects a single
// graph covering every receiver. Each group scheme kind is the lift of
// one unicast kind (unicastEquivalent below); dynamic variants hold one
// unicast sub-scheme per receiver and serve the union of their
// selections, so a single-receiver group reproduces the unicast scheme's
// decisions bit for bit. Static variants freeze the union at baseline.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "graph/graph.hpp"
#include "mcast/group.hpp"
#include "routing/decision_memo.hpp"
#include "routing/network_view.hpp"
#include "routing/scheme.hpp"
#include "telemetry/telemetry.hpp"

namespace dg::mcast {

enum class GroupSchemeKind {
  kStaticTrees,        ///< baseline union of per-receiver single paths
  kDynamicTrees,       ///< per-receiver dynamic-single union
  kStaticMesh,         ///< baseline union of per-receiver two-disjoint
  kDynamicMesh,        ///< per-receiver dynamic-two-disjoint union
  kTargetedReceivers,  ///< per-receiver targeted-redundancy union
  kGroupFlooding,      ///< deadline-pruned flooding toward the receiver set
};

std::string_view groupSchemeName(GroupSchemeKind kind);
/// Parses a scheme name; the error message lists every valid name.
GroupSchemeKind parseGroupSchemeKind(std::string_view name);
std::vector<GroupSchemeKind> allGroupSchemeKinds();

/// The unicast scheme whose per-receiver decisions this group kind lifts.
/// A single-receiver group under `kind` is bit-identical to a unicast
/// flow under `unicastEquivalent(kind)` -- pinned by test.
routing::SchemeKind unicastEquivalent(GroupSchemeKind kind);

/// The group kind whose unicastEquivalent() is `kind`: a unicast flow
/// under `kind` is the one-receiver group under this kind.
GroupSchemeKind groupEquivalent(routing::SchemeKind kind);

/// True for the kinds whose select() carries decision state through time
/// (one unicast sub-scheme per receiver). Static kinds freeze their union
/// at initialize(), so a mid-trace task of theirs needs no replay.
bool isAdaptive(GroupSchemeKind kind);

/// The unicast scheme params of receiver i: `params` with the deadline
/// swapped for the receiver's own. With receiverFlow() and
/// unicastEquivalent() this names the receiver's decision context.
routing::SchemeParams receiverSchemeParams(const Group& group, std::size_t i,
                                           const routing::SchemeParams& params);

class GroupScheme {
 public:
  GroupScheme(const graph::Graph& overlay, Group group,
              routing::SchemeParams params);
  virtual ~GroupScheme() = default;
  GroupScheme(const GroupScheme&) = delete;
  GroupScheme& operator=(const GroupScheme&) = delete;

  virtual std::string_view name() const = 0;
  /// Called once with the healthy-baseline view before any select().
  virtual void initialize(const routing::NetworkView& baselineView) = 0;
  /// Returns the group graph for the view's interval. The reference
  /// stays valid until the next select() on this scheme.
  virtual const graph::DisseminationGraph& select(
      const routing::NetworkView& view) = 0;
  /// True when selecting against the healthy baseline is a fixed point,
  /// letting the playback engine skip re-selection on clean intervals.
  virtual bool steadyOnBaseline() const { return false; }
  /// The selection in force: the last select()'s result, or after
  /// initialize() / restoreReceivers() what the next baseline select()
  /// would return.
  virtual const graph::DisseminationGraph& current() const = 0;
  /// Adaptive kinds, right after initialize(): restores receiver i's
  /// sub-scheme from `receivers[i]`, a checkpoint of its unicast context
  /// (see playback::DecisionReplay), then rebuilds the union once. Static
  /// kinds have no decision state and accept only an empty span.
  virtual void restoreReceivers(
      std::span<const routing::DecisionCheckpoint* const> receivers);

  virtual void setTelemetry(telemetry::Telemetry* telemetry,
                            std::string groupLabel);
  /// Attaches the shared memo to each per-receiver sub-scheme under its
  /// unicast-equivalent context key; no-op for static schemes.
  virtual void attachDecisionMemo(routing::DecisionMemo* /*memo*/) {}

  const Group& group() const { return group_; }

 protected:
  routing::SchemeParams receiverParams(std::size_t i) const {
    return receiverSchemeParams(group_, i, params_);
  }

  const graph::Graph& overlay_;
  Group group_;
  routing::SchemeParams params_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::string groupLabel_;
};

std::unique_ptr<GroupScheme> makeGroupScheme(GroupSchemeKind kind,
                                             const graph::Graph& overlay,
                                             const Group& group,
                                             routing::SchemeParams params);

}  // namespace dg::mcast
