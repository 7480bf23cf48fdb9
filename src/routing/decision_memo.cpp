#include "routing/decision_memo.hpp"

#include <algorithm>
#include <stdexcept>

#include "routing/scheme.hpp"

namespace dg::routing {

namespace {

/// Lexicographic order on edge lists that also compares a stored vector
/// with a borrowed span, so a lookup needs no key copy.
struct EdgeListLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

constexpr std::size_t kNoPartner = static_cast<std::size_t>(-1);

/// The kind whose decisions `kind`'s memoized decisions are: targeted
/// redundancy memoizes only its middle-problem re-plan, which is
/// dynamic-two-disjoint's re-plan.
bool partners(SchemeKind a, SchemeKind b) {
  return (a == SchemeKind::TargetedRedundancy &&
          b == SchemeKind::DynamicTwoDisjoint) ||
         (a == SchemeKind::DynamicTwoDisjoint &&
          b == SchemeKind::TargetedRedundancy);
}

}  // namespace

struct DecisionMemo::Context {
  SchemeKind kind;
  Flow flow;
  SchemeParams params;
  std::size_t partner = kNoPartner;
  /// View fingerprint -> edge-list id in `lists`, or kNoRoute.
  std::unordered_map<std::uint64_t, std::uint32_t> byFingerprint;
  std::map<std::vector<graph::EdgeId>, std::uint32_t, EdgeListLess> listIndex;
  std::vector<const std::vector<graph::EdgeId>*> lists;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  std::optional<std::uint32_t> find(std::uint64_t fingerprint,
                                    std::vector<graph::EdgeId>& out) const {
    const auto it = byFingerprint.find(fingerprint);
    if (it == byFingerprint.end()) return std::nullopt;
    if (it->second != kNoRoute) {
      const std::vector<graph::EdgeId>& list = *lists[it->second];
      out.assign(list.begin(), list.end());
    }
    return it->second;
  }
};

DecisionMemo::DecisionMemo() = default;
DecisionMemo::~DecisionMemo() = default;

// dgcheck: cold: runs once per decision context, before the replay
std::uint64_t DecisionMemo::contextKey(SchemeKind kind, const Flow& flow,
                                       const SchemeParams& params) {
  std::size_t partner = kNoPartner;
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    const Context& c = contexts_[i];
    if (!(c.flow == flow && c.params == params)) continue;
    if (c.kind == kind) return i;
    if (partners(c.kind, kind)) partner = i;
  }
  if (contexts_.size() >= 0xFFFFFFFFULL)
    throw std::length_error("DecisionMemo: too many contexts");
  const std::size_t key = contexts_.size();
  contexts_.push_back(Context{kind, flow, params, partner, {}, {}, {}, 0, 0});
  if (partner != kNoPartner) contexts_[partner].partner = key;
  return key;
}

std::optional<std::uint64_t> DecisionMemo::findContext(
    SchemeKind kind, const Flow& flow, const SchemeParams& params) const {
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    const Context& c = contexts_[i];
    if (c.kind == kind && c.flow == flow && c.params == params) return i;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> DecisionMemo::findDecision(
    std::uint64_t contextKey, std::uint64_t viewFingerprint,
    std::vector<graph::EdgeId>& out) {
  Context& c = contexts_[contextKey];
  std::optional<std::uint32_t> found = c.find(viewFingerprint, out);
  if (!found && c.partner != kNoPartner)
    found = contexts_[c.partner].find(viewFingerprint, out);
  ++(found ? c.hits : c.misses);
  return found;
}

void DecisionMemo::storeDecision(std::uint64_t contextKey,
                                 std::uint64_t viewFingerprint,
                                 std::uint32_t edgeListId) {
  contexts_[contextKey].byFingerprint.emplace(viewFingerprint, edgeListId);
}

// dgcheck: cold: runs only on a memo miss; allocates only for a new edge list
std::uint32_t DecisionMemo::internEdgeList(
    std::uint64_t contextKey, std::span<const graph::EdgeId> edges) {
  Context& c = contexts_[contextKey];
  const auto it = c.listIndex.find(edges);
  if (it != c.listIndex.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(c.lists.size());
  const auto inserted =
      c.listIndex.emplace(std::vector<graph::EdgeId>(edges.begin(),
                                                     edges.end()),
                          id);
  c.lists.push_back(&inserted.first->first);
  return id;
}

DecisionMemo::Snapshot DecisionMemo::snapshot() const {
  Snapshot snap;
  // One edge-list table for the file: each list once, in order of first
  // use by the sorted decisions of the contexts in order.
  std::map<std::vector<graph::EdgeId>, std::uint32_t, EdgeListLess> global;
  snap.contexts.resize(contexts_.size());
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    const Context& c = contexts_[i];
    Snapshot::ContextEntry& entry = snap.contexts[i];
    entry.kind = c.kind;
    entry.flow = c.flow;
    entry.params = c.params;
    entry.decisions.assign(c.byFingerprint.begin(), c.byFingerprint.end());
    std::sort(entry.decisions.begin(), entry.decisions.end());
    for (auto& [fingerprint, id] : entry.decisions) {
      if (id == kNoRoute) continue;
      const std::vector<graph::EdgeId>& list = *c.lists[id];
      const auto [it, added] = global.emplace(
          list, static_cast<std::uint32_t>(snap.edgeLists.size()));
      if (added) snap.edgeLists.push_back(list);
      id = it->second;
    }
  }
  return snap;
}

void DecisionMemo::absorb(const Snapshot& snapshot) {
  for (const Snapshot::ContextEntry& entry : snapshot.contexts) {
    const std::uint64_t context =
        contextKey(entry.kind, entry.flow, entry.params);
    for (const auto& [fingerprint, edgeListId] : entry.decisions) {
      if (contexts_[context].byFingerprint.count(fingerprint) != 0) continue;
      const std::uint32_t mapped =
          edgeListId == kNoRoute
              ? kNoRoute
              : internEdgeList(context, snapshot.edgeLists.at(edgeListId));
      storeDecision(context, fingerprint, mapped);
    }
  }
}

DecisionMemo::Stats DecisionMemo::stats() const {
  Stats s;
  for (const Context& c : contexts_) {
    s.decisionHits += c.hits;
    s.decisionMisses += c.misses;
    s.decisions += c.byFingerprint.size();
    s.edgeLists += c.lists.size();
  }
  s.contexts = contexts_.size();
  return s;
}

}  // namespace dg::routing
