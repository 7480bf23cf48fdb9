#include "mcast/scheme.hpp"

#include <algorithm>
#include <stdexcept>
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

GroupScheme::GroupScheme(const graph::Graph& overlay, Group group,
                         routing::SchemeParams params)
    : overlay_(overlay), group_(std::move(group)), params_(params) {
  validateGroup(group_, overlay_.nodeCount());
}

void GroupScheme::setTelemetry(telemetry::Telemetry* telemetry,
                               std::string groupLabel) {
  telemetry_ = telemetry;
  groupLabel_ = std::move(groupLabel);
}

void GroupScheme::restoreReceivers(
    std::span<const routing::DecisionCheckpoint* const> receivers) {
  if (!receivers.empty())
    throw std::invalid_argument(
        "GroupScheme::restoreReceivers: static group schemes have no "
        "decision state");
}

namespace {

/// Dynamic group schemes: one unicast sub-scheme per receiver, serving
/// the union of their current selections. The union is rebuilt only when
/// some sub-selection actually changed, so steady spans keep returning
/// the same DisseminationGraph object (which the playback engine's
/// clean-eval reuse keys on).
class SubUnionScheme : public GroupScheme {
 public:
  SubUnionScheme(GroupSchemeKind kind, const graph::Graph& overlay,
                 Group group, routing::SchemeParams params)
      : GroupScheme(overlay, std::move(group), params),
        kind_(kind),
        union_(overlay, group_.source, group_.receivers.front()) {
    for (std::size_t i = 0; i < group_.receivers.size(); ++i) {
      subs_.push_back(routing::makeScheme(unicastEquivalent(kind_), overlay_,
                                          receiverFlow(group_, i),
                                          receiverParams(i)));
    }
    subEdges_.resize(subs_.size());
  }

  std::string_view name() const override { return groupSchemeName(kind_); }

  // dgcheck: cold: runs once per (group, scheme, chunk) task before interval playback
  void initialize(const routing::NetworkView& baselineView) override {
    // The extra select() after initialize() is a fixed-point no-op for
    // every unicast scheme (the cached schemes hit the fingerprint fast
    // path; targeted re-derives the identical classification), so the
    // per-interval selections match the unicast scheme's exactly.
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      subs_[i]->initialize(baselineView);
      subEdges_[i] = subs_[i]->select(baselineView).edges();
    }
    rebuildUnion();
  }

  // dgcheck: cold: decision path; steady-state selects are fixed-point no-ops on every sub-scheme
  const graph::DisseminationGraph& select(
      const routing::NetworkView& view) override {
    bool changed = false;
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      const graph::DisseminationGraph& sub = subs_[i]->select(view);
      if (sub.edges() != subEdges_[i]) {
        subEdges_[i] = sub.edges();
        changed = true;
      }
    }
    if (changed) rebuildUnion();
    return union_;
  }

  bool steadyOnBaseline() const override {
    return std::all_of(subs_.begin(), subs_.end(),
                       [](const auto& sub) { return sub->steadyOnBaseline(); });
  }

  const graph::DisseminationGraph& current() const override { return union_; }

  void restoreReceivers(
      std::span<const routing::DecisionCheckpoint* const> receivers) override {
    if (receivers.size() != subs_.size())
      throw std::invalid_argument(
          "SubUnionScheme::restoreReceivers: one checkpoint per receiver");
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      subs_[i]->restoreState(receivers[i]->state);
      subEdges_[i] = receivers[i]->lastEdges;
    }
    rebuildUnion();
  }

  void setTelemetry(telemetry::Telemetry* telemetry,
                    std::string groupLabel) override {
    GroupScheme::setTelemetry(telemetry, std::move(groupLabel));
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      subs_[i]->setTelemetry(telemetry,
                             std::to_string(group_.source) + "->" +
                                 std::to_string(group_.receivers[i]));
    }
  }

  void attachDecisionMemo(routing::DecisionMemo* memo) override {
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      subs_[i]->setDecisionMemo(
          memo, memo->contextKey(unicastEquivalent(kind_),
                                 receiverFlow(group_, i), receiverParams(i)));
    }
  }

 private:
  /// Rebuilds the union in place, reusing its storage.
  void rebuildUnion() {
    union_.clear();
    for (const auto& edges : subEdges_) {
      for (const graph::EdgeId e : edges) union_.addEdge(e);
    }
  }

  GroupSchemeKind kind_;
  std::vector<std::unique_ptr<routing::RoutingScheme>> subs_;
  std::vector<std::vector<graph::EdgeId>> subEdges_;
  graph::DisseminationGraph union_;
};

/// Static group schemes: the union is frozen from the healthy baseline at
/// initialize() and never revisited, mirroring the unicast static
/// schemes.
class StaticUnionScheme : public GroupScheme {
 public:
  StaticUnionScheme(GroupSchemeKind kind, const graph::Graph& overlay,
                    Group group, routing::SchemeParams params)
      : GroupScheme(overlay, std::move(group), params),
        kind_(kind),
        union_(overlay, group_.source, group_.receivers.front()) {}

  std::string_view name() const override { return groupSchemeName(kind_); }

  // dgcheck: cold: runs once per (group, scheme, chunk) task before interval playback
  void initialize(const routing::NetworkView& baselineView) override {
    std::vector<routing::SchemeParams> perReceiver;
    for (std::size_t i = 0; i < group_.receivers.size(); ++i) {
      perReceiver.push_back(receiverParams(i));
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

  // dgcheck: cold: static scheme; select never re-plans after initialize
  const graph::DisseminationGraph& select(
      const routing::NetworkView&) override {
    return union_;
  }

  // Like the unicast static schemes, select() never mutates state, so the
  // baseline is trivially a fixed point.
  bool steadyOnBaseline() const override { return true; }

  const graph::DisseminationGraph& current() const override { return union_; }

 private:
  GroupSchemeKind kind_;
  graph::DisseminationGraph union_;
};

}  // namespace

// dgcheck: cold: once-per-(group, scheme, chunk) factory, runs before interval playback starts
std::unique_ptr<GroupScheme> makeGroupScheme(GroupSchemeKind kind,
                                             const graph::Graph& overlay,
                                             const Group& group,
                                             routing::SchemeParams params) {
  switch (kind) {
    case GroupSchemeKind::kStaticTrees:
    case GroupSchemeKind::kStaticMesh:
    case GroupSchemeKind::kGroupFlooding:
      return std::make_unique<StaticUnionScheme>(kind, overlay, group, params);
    case GroupSchemeKind::kDynamicTrees:
    case GroupSchemeKind::kDynamicMesh:
    case GroupSchemeKind::kTargetedReceivers:
      return std::make_unique<SubUnionScheme>(kind, overlay, group, params);
  }
  throw std::invalid_argument("unknown group scheme kind");
}

}  // namespace dg::mcast
