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
// One table per context: each context's decisions, edge lists and
// hit/miss counts live in its own table, written only through its own
// context key. The targeted scheme's middle-problem re-plan is
// dynamic-two-disjoint's re-plan, so the two contexts of one (flow,
// params) are partners: a lookup that misses its own table reads the
// partner's before it counts a miss.
//
// Threads: the memo takes no lock. contextKey() and absorb() add
// contexts and must not run concurrently with anything. Once every
// context is interned, lookups and stores through distinct contexts may
// run concurrently, provided no context is written while its partner
// reads it -- the sweep runner replays every dynamic-two-disjoint context
// before any targeted one. Stored values are pure functions of their
// keys, so results do not depend on the schedule.
#pragma once

#include <cstdint>
#include <map>
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
  /// to the same key. Links a targeted context with the
  /// dynamic-two-disjoint context of the same flow and params, whichever
  /// is interned second. Not thread-safe (see above).
  std::uint64_t contextKey(SchemeKind kind, const Flow& flow,
                           const SchemeParams& params);
  /// The key of an interned context, or nullopt. Adds nothing, so it may
  /// run concurrently with lookups and stores.
  std::optional<std::uint64_t> findContext(SchemeKind kind, const Flow& flow,
                                           const SchemeParams& params) const;

  /// Looks up the decision for (context, view fingerprint) in the
  /// context's table, then in its partner's. Returns the edge-list id,
  /// kNoRoute for a memoized no-route decision, or nullopt on a miss;
  /// counts a hit or a miss on `contextKey`. For an edge-list id the list
  /// is copied into `out` (cleared first); otherwise `out` is left alone.
  /// The id is only meaningful to compare with kNoRoute: ids are per
  /// table.
  std::optional<std::uint32_t> findDecision(std::uint64_t contextKey,
                                            std::uint64_t viewFingerprint,
                                            std::vector<graph::EdgeId>& out);

  /// Stores a decision in the context's own table; `edgeListId` comes
  /// from internEdgeList on the same context, or is kNoRoute. An existing
  /// entry wins.
  void storeDecision(std::uint64_t contextKey, std::uint64_t viewFingerprint,
                     std::uint32_t edgeListId);

  /// Interns an edge list (sorted member edges of a dissemination graph)
  /// in the context's table; equal lists map to the same id. Allocates
  /// only when the list is new.
  std::uint32_t internEdgeList(std::uint64_t contextKey,
                               std::span<const graph::EdgeId> edges);

  /// Memo traffic and contents, summed over the context tables. Every
  /// count is a pure function of what each context looked up and stored,
  /// in its owner's order, so a sweep -- whose phase 1 gives each table
  /// one owner -- reports the same counts at any thread count.
  struct Stats {
    std::uint64_t decisionHits = 0;
    std::uint64_t decisionMisses = 0;
    /// Distinct (context, view) decisions stored.
    std::size_t decisions = 0;
    /// Distinct edge lists per context, summed over contexts.
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
  /// sorted by fingerprint, edge lists in order of first use by those
  /// decisions (serializing twice yields identical bytes).
  Snapshot snapshot() const;

  /// Merges a snapshot in. Existing entries win on conflict (emplace
  /// semantics), which cannot change results -- every decision is a pure
  /// function of its key -- only hit rates.
  void absorb(const Snapshot& snapshot);

 private:
  struct Context;

  std::vector<Context> contexts_;
};

}  // namespace dg::routing
