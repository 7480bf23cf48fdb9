// Group routing schemes: one dissemination graph per receiver set.
//
// Each group scheme kind is the lift of one unicast kind
// (unicastEquivalent below) and selects a single graph covering every
// receiver. Adaptive kinds serve the union of their receivers' unicast
// selections (uniteSelections), so a single-receiver group reproduces
// the unicast scheme's decisions bit for bit. Static kinds freeze the
// union at baseline (GroupScheme).
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
#include "routing/network_view.hpp"
#include "routing/scheme.hpp"

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

/// An adaptive kind's graph: rebuilds `out` in place as the union of
/// its receivers' unicast selections (each a sorted edge list), taken in
/// receiver order. Playback scores this union from the receivers'
/// decision timelines (playback::DecisionReplay); nothing else builds it.
void uniteSelections(
    graph::DisseminationGraph& out,
    std::span<const std::vector<graph::EdgeId>* const> selections);

/// A static kind: its union is frozen from the healthy baseline at
/// initialize() and never revisited, mirroring the unicast static
/// schemes. Adaptive kinds have no group scheme -- see uniteSelections.
class GroupScheme {
 public:
  /// Throws std::invalid_argument for an adaptive kind.
  GroupScheme(GroupSchemeKind kind, const graph::Graph& overlay, Group group,
              routing::SchemeParams params);
  GroupScheme(const GroupScheme&) = delete;
  GroupScheme& operator=(const GroupScheme&) = delete;

  /// Called once with the healthy-baseline view before any select().
  void initialize(const routing::NetworkView& baselineView);
  /// The frozen group graph, whatever the view.
  const graph::DisseminationGraph& select(const routing::NetworkView&) const {
    return union_;
  }
  /// The frozen group graph.
  const graph::DisseminationGraph& current() const { return union_; }

 private:
  GroupSchemeKind kind_;
  const graph::Graph& overlay_;
  Group group_;
  routing::SchemeParams params_;
  graph::DisseminationGraph union_;
};

/// The group scheme of a static kind; throws std::invalid_argument for an
/// adaptive one.
std::unique_ptr<GroupScheme> makeGroupScheme(GroupSchemeKind kind,
                                             const graph::Graph& overlay,
                                             const Group& group,
                                             routing::SchemeParams params);

}  // namespace dg::mcast
