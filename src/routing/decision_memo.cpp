#include "routing/decision_memo.hpp"

#include <algorithm>
#include <stdexcept>

#include "routing/scheme.hpp"

namespace dg::routing {

struct DecisionMemo::Context {
  SchemeKind kind;
  Flow flow;
  SchemeParams params;
};

DecisionMemo::DecisionMemo() = default;
DecisionMemo::~DecisionMemo() = default;

namespace {

std::uint64_t packKey(std::uint64_t contextKey, std::uint64_t fingerprint) {
  // Both components are dense interned ids, so 32 bits each is ample; the
  // packed key therefore stays exact (no lossy hashing).
  return (contextKey << 32) | (fingerprint & 0xFFFFFFFFULL);
}

}  // namespace

// dgcheck: cold: runs once per (flow, scheme, chunk) registration
std::uint64_t DecisionMemo::contextKey(SchemeKind kind, const Flow& flow,
                                       const SchemeParams& params) {
  const std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    const Context& c = contexts_[i];
    if (c.kind == kind && c.flow == flow && c.params == params) return i;
  }
  if (contexts_.size() >= 0xFFFFFFFFULL)
    throw std::length_error("DecisionMemo: too many contexts");
  contexts_.push_back(Context{kind, flow, params});
  return contexts_.size() - 1;
}

std::optional<std::uint32_t> DecisionMemo::findDecision(
    std::uint64_t contextKey, std::uint64_t viewFingerprint,
    std::vector<graph::EdgeId>& out) {
  const std::scoped_lock lock(mutex_);
  const auto it = decisions_.find(packKey(contextKey, viewFingerprint));
  if (it == decisions_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  if (it->second != kNoRoute) {
    const std::vector<graph::EdgeId>& list = *edgeLists_[it->second];
    out.assign(list.begin(), list.end());
  }
  return it->second;
}

void DecisionMemo::storeDecision(std::uint64_t contextKey,
                                 std::uint64_t viewFingerprint,
                                 std::uint32_t edgeListId) {
  const std::scoped_lock lock(mutex_);
  decisions_.emplace(packKey(contextKey, viewFingerprint), edgeListId);
}

// dgcheck: cold: runs only on a memo miss (new edge list); amortized to zero in steady state
std::uint32_t DecisionMemo::internEdgeList(
    std::span<const graph::EdgeId> edges) {
  const std::scoped_lock lock(mutex_);
  std::vector<graph::EdgeId> key(edges.begin(), edges.end());
  const auto [it, inserted] = edgeListIndex_.emplace(
      std::move(key), static_cast<std::uint32_t>(edgeLists_.size()));
  if (inserted) edgeLists_.push_back(&it->first);
  return it->second;
}

DecisionMemo::Snapshot DecisionMemo::snapshot() const {
  const std::scoped_lock lock(mutex_);
  Snapshot snap;
  snap.edgeLists.reserve(edgeLists_.size());
  for (const std::vector<graph::EdgeId>* list : edgeLists_)
    snap.edgeLists.push_back(*list);
  snap.contexts.resize(contexts_.size());
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    Snapshot::ContextEntry& entry = snap.contexts[i];
    entry.kind = contexts_[i].kind;
    entry.flow = contexts_[i].flow;
    entry.params = contexts_[i].params;
  }
  for (const auto& [packed, edgeListId] : decisions_) {
    const std::size_t context = static_cast<std::size_t>(packed >> 32);
    const std::uint64_t fingerprint = packed & 0xFFFFFFFFULL;
    snap.contexts.at(context).decisions.emplace_back(fingerprint, edgeListId);
  }
  for (Snapshot::ContextEntry& entry : snap.contexts) {
    std::sort(entry.decisions.begin(), entry.decisions.end());
  }
  return snap;
}

void DecisionMemo::absorb(const Snapshot& snapshot) {
  // Re-intern through the public API (it takes the lock itself): the
  // snapshot's ids are the donor process's interning order, not ours.
  std::vector<std::uint32_t> edgeListIds;
  edgeListIds.reserve(snapshot.edgeLists.size());
  for (const std::vector<graph::EdgeId>& list : snapshot.edgeLists)
    edgeListIds.push_back(internEdgeList(list));
  for (const Snapshot::ContextEntry& entry : snapshot.contexts) {
    const std::uint64_t context =
        contextKey(entry.kind, entry.flow, entry.params);
    for (const auto& [fingerprint, edgeListId] : entry.decisions) {
      const std::uint32_t mapped = edgeListId == kNoRoute
                                       ? kNoRoute
                                       : edgeListIds.at(edgeListId);
      storeDecision(context, fingerprint, mapped);
    }
  }
}

DecisionMemo::Stats DecisionMemo::stats() const {
  const std::scoped_lock lock(mutex_);
  Stats s;
  s.decisionHits = hits_;
  s.decisionMisses = misses_;
  s.decisions = decisions_.size();
  s.edgeLists = edgeLists_.size();
  s.contexts = contexts_.size();
  return s;
}

}  // namespace dg::routing
