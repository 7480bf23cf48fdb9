// Cross-job routing-decision memoization.
//
// A scheme's path selection for a given network view is (for every scheme
// whose decision is a pure function of the view) fully determined by
// (scheme kind, scheme params, flow, view content). The playback engine
// replays the same trace for every (flow, scheme) pair and across
// repeated runs (timelines, ablations, benches), so identical views recur
// constantly; this memo lets a scheme skip the Dijkstra / k-shortest /
// disjoint-path construction when the decision for its exact context and
// the view's exact content fingerprint has already been made.
//
// Exactness: every key component is interned by full value comparison --
// contexts by (kind, flow, params) equality, edge lists lexicographically,
// view fingerprints are trace::ConditionIndex content ids. Hashes are
// never trusted on their own, so a memo hit always reproduces bit-for-bit
// what the recomputation would have produced. Decisions that are *not*
// pure in the view (the targeted scheme's hold-down state machine) must
// simply not consult the memo.
//
// Thread safety: all methods are internally synchronized; the playback
// experiment runner shares one memo across its worker threads. Stored
// values are pure functions of their keys, so results are independent of
// which thread inserts first.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "routing/scheme.hpp"

namespace dg::routing {

class DecisionMemo {
 public:
  /// Edge-list id stored for "the view offered no timely route": the
  /// scheme keeps its previous graph (see CachedGraphScheme::recompute).
  static constexpr std::uint32_t kNoRoute = static_cast<std::uint32_t>(-1);

  DecisionMemo();
  ~DecisionMemo();
  DecisionMemo(const DecisionMemo&) = delete;
  DecisionMemo& operator=(const DecisionMemo&) = delete;

  /// Interns a decision context; equal (kind, flow, params) triples map
  /// to the same key. Called once per playback job, not per interval.
  std::uint64_t contextKey(SchemeKind kind, const Flow& flow,
                           const SchemeParams& params);

  /// Looks up the decision for (context, view fingerprint). Returns the
  /// interned edge-list id, kNoRoute for a memoized no-route decision,
  /// or nullopt on a miss. For an edge-list id the list is copied into
  /// `out` (cleared first) under the same lock; otherwise `out` is left
  /// alone. One lock per hit keeps the shared memo's traffic down.
  std::optional<std::uint32_t> findDecision(std::uint64_t contextKey,
                                            std::uint64_t viewFingerprint,
                                            std::vector<graph::EdgeId>& out);

  void storeDecision(std::uint64_t contextKey, std::uint64_t viewFingerprint,
                     std::uint32_t edgeListId);

  /// Interns an edge list (sorted member edges of a dissemination graph);
  /// equal lists map to the same id.
  std::uint32_t internEdgeList(std::span<const graph::EdgeId> edges);

  /// Memo traffic and contents. Lookups (hits + misses), decisions,
  /// edge lists and contexts are the same at any thread count. The split
  /// of lookups into hits and misses is not: two workers can miss the
  /// same key at once, and both count a miss where one thread counts a
  /// miss and a hit. Only a 1-thread run repeats its hits and misses.
  struct Stats {
    std::uint64_t decisionHits = 0;
    std::uint64_t decisionMisses = 0;
    /// Distinct (context, view) decisions stored.
    std::size_t decisions = 0;
    std::size_t edgeLists = 0;
    std::size_t contexts = 0;

    std::uint64_t lookups() const { return decisionHits + decisionMisses; }
  };
  Stats stats() const;

  /// Value-complete copy of the memo for the persistent sidecar cache
  /// (src/playback/memo_cache.*). Context keys and edge-list ids are
  /// process-local interning accidents, so the snapshot spells every
  /// context out by (kind, flow, params) value and references edge lists
  /// by index into its own table; absorb() re-interns both, which makes a
  /// round trip independent of the id assignment order of either process.
  struct Snapshot {
    struct ContextEntry {
      SchemeKind kind{};
      Flow flow;
      SchemeParams params;
      /// (view fingerprint, index into Snapshot::edgeLists) -- or
      /// kNoRoute for a memoized no-route decision.
      std::vector<std::pair<std::uint64_t, std::uint32_t>> decisions;
    };
    std::vector<std::vector<graph::EdgeId>> edgeLists;
    std::vector<ContextEntry> contexts;
  };

  /// Deterministic snapshot: contexts in interning order, decisions
  /// sorted by fingerprint (serializing twice yields identical bytes).
  Snapshot snapshot() const;

  /// Merges a snapshot in. Existing entries win on conflict (emplace
  /// semantics), which cannot change results -- every decision is a pure
  /// function of its key -- only hit rates.
  void absorb(const Snapshot& snapshot);

 private:
  struct Context;

  mutable std::mutex mutex_;
  std::vector<Context> contexts_;
  // (contextKey, fingerprint) -> edge-list id. Both components are dense
  // interned ids, so the packed key is exact.
  std::unordered_map<std::uint64_t, std::uint32_t> decisions_;
  std::map<std::vector<graph::EdgeId>, std::uint32_t> edgeListIndex_;
  std::vector<const std::vector<graph::EdgeId>*> edgeLists_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dg::routing
