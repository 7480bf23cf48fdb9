#include "mcast/scheme.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "mcast/builders.hpp"

namespace dg::mcast {

std::string_view groupSchemeName(GroupSchemeKind kind) {
  switch (kind) {
    case GroupSchemeKind::kStaticTrees: return "static-trees";
    case GroupSchemeKind::kDynamicTrees: return "dynamic-trees";
    case GroupSchemeKind::kStaticMesh: return "static-mesh";
    case GroupSchemeKind::kDynamicMesh: return "dynamic-mesh";
    case GroupSchemeKind::kTargetedReceivers: return "targeted-receivers";
    case GroupSchemeKind::kGroupFlooding: return "group-flooding";
  }
  return "unknown";
}

GroupSchemeKind parseGroupSchemeKind(std::string_view name) {
  for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
    if (groupSchemeName(kind) == name) return kind;
  }
  std::string valid;
  for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
    if (!valid.empty()) valid += ", ";
    valid += groupSchemeName(kind);
  }
  throw std::invalid_argument("unknown group scheme: " + std::string(name) +
                              " (valid: " + valid + ")");
}

std::vector<GroupSchemeKind> allGroupSchemeKinds() {
  return {GroupSchemeKind::kStaticTrees,       GroupSchemeKind::kDynamicTrees,
          GroupSchemeKind::kStaticMesh,        GroupSchemeKind::kDynamicMesh,
          GroupSchemeKind::kTargetedReceivers, GroupSchemeKind::kGroupFlooding};
}

routing::SchemeKind unicastEquivalent(GroupSchemeKind kind) {
  switch (kind) {
    case GroupSchemeKind::kStaticTrees:
      return routing::SchemeKind::StaticSinglePath;
    case GroupSchemeKind::kDynamicTrees:
      return routing::SchemeKind::DynamicSinglePath;
    case GroupSchemeKind::kStaticMesh:
      return routing::SchemeKind::StaticTwoDisjoint;
    case GroupSchemeKind::kDynamicMesh:
      return routing::SchemeKind::DynamicTwoDisjoint;
    case GroupSchemeKind::kTargetedReceivers:
      return routing::SchemeKind::TargetedRedundancy;
    case GroupSchemeKind::kGroupFlooding:
      return routing::SchemeKind::TimeConstrainedFlooding;
  }
  return routing::SchemeKind::StaticSinglePath;
}

GroupSchemeKind groupEquivalent(routing::SchemeKind kind) {
  for (const GroupSchemeKind group : allGroupSchemeKinds()) {
    if (unicastEquivalent(group) == kind) return group;
  }
  throw std::invalid_argument("groupEquivalent: unknown scheme kind");
}

bool isAdaptive(GroupSchemeKind kind) {
  switch (kind) {
    case GroupSchemeKind::kDynamicTrees:
    case GroupSchemeKind::kDynamicMesh:
    case GroupSchemeKind::kTargetedReceivers:
      return true;
    case GroupSchemeKind::kStaticTrees:
    case GroupSchemeKind::kStaticMesh:
    case GroupSchemeKind::kGroupFlooding:
      return false;
  }
  return false;
}

routing::SchemeParams receiverSchemeParams(
    const Group& group, std::size_t i, const routing::SchemeParams& params) {
  routing::SchemeParams receiver = params;
  receiver.deadline = receiverDeadline(group, i, params.deadline);
  return receiver;
}

// dgcheck: cold: runs at span changes of an adaptive unit's receivers
void uniteSelections(
    graph::DisseminationGraph& out,
    std::span<const std::vector<graph::EdgeId>* const> selections) {
  out.clear();
  for (const std::vector<graph::EdgeId>* edges : selections) {
    for (const graph::EdgeId e : *edges) out.addEdge(e);
  }
}

namespace {

Group validated(Group group, std::size_t nodeCount) {
  validateGroup(group, nodeCount);
  return group;
}

}  // namespace

GroupScheme::GroupScheme(GroupSchemeKind kind, const graph::Graph& overlay,
                         Group group, routing::SchemeParams params)
    : kind_(kind),
      overlay_(overlay),
      group_(validated(std::move(group), overlay.nodeCount())),
      params_(params),
      union_(overlay, group_.source, group_.receivers.front()) {
  if (isAdaptive(kind_))
    throw std::invalid_argument(
        "GroupScheme: " + std::string(groupSchemeName(kind_)) +
        " is adaptive; its graph is the union of its receivers' decisions");
}

// dgcheck: cold: runs once per static (unit, scheme) job before interval playback
void GroupScheme::initialize(const routing::NetworkView& baselineView) {
  std::vector<routing::SchemeParams> perReceiver;
  for (std::size_t i = 0; i < group_.receivers.size(); ++i) {
    perReceiver.push_back(receiverSchemeParams(group_, i, params_));
  }
  switch (kind_) {
    case GroupSchemeKind::kStaticTrees:
      union_ = buildTreeUnion(overlay_, group_, baselineView, perReceiver);
      break;
    case GroupSchemeKind::kGroupFlooding:
      union_ = buildReceiverUnion(
          overlay_, group_, baselineView,
          routing::SchemeKind::TimeConstrainedFlooding, perReceiver);
      break;
    default:
      union_ = buildReceiverUnion(overlay_, group_, baselineView,
                                  routing::SchemeKind::StaticTwoDisjoint,
                                  perReceiver);
      break;
  }
}

// dgcheck: cold: once-per-(group, scheme) factory, runs before interval playback starts
std::unique_ptr<GroupScheme> makeGroupScheme(GroupSchemeKind kind,
                                             const graph::Graph& overlay,
                                             const Group& group,
                                             routing::SchemeParams params) {
  return std::make_unique<GroupScheme>(kind, overlay, group, params);
}

}  // namespace dg::mcast
