// Flow algorithms used by the disjoint-path machinery and analysis tools:
//  - MinCostFlow: successive shortest paths with Johnson potentials
//    (costs must be non-negative), used to find k node-disjoint paths of
//    minimum total latency.
//  - MaxFlow (Dinic): used to measure connectivity (how many disjoint
//    paths exist at all) in analysis and as an independent oracle in
//    property tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace dg::graph {

/// Min-cost flow on a directed graph with integer capacities and
/// non-negative integer costs. Nodes are dense 0-based ids declared up
/// front. Arcs are addressed by the id returned from addArc.
///
/// Arcs live in one flat array (arc 2i and its residual twin 2i+1); solve()
/// groups them by tail node into CSR adjacency with a stable counting
/// sort, so every node scans its arcs in insertion order. Dijkstra runs on
/// a flat binary heap of (distance, node) pairs -- the same heap
/// discipline as std::priority_queue, and the pairs are totally ordered,
/// so the pop sequence and every chosen parent arc are fixed by the input
/// alone. All scratch is owned by the instance: reset() clears it for the
/// next network while keeping its capacity, so one instance can serve any
/// number of solves without allocating once warmed up.
class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t nodeCount);

  /// Drops every arc and resizes to `nodeCount` nodes; allocated memory is
  /// kept for reuse.
  void reset(std::size_t nodeCount);

  /// Adds a directed arc and its residual twin; returns the arc id.
  int addArc(int from, int to, std::int64_t capacity, std::int64_t cost);

  /// Sends up to `maxFlow` units from src to dst along successive
  /// cheapest augmenting paths. Returns (flow actually sent, total cost).
  std::pair<std::int64_t, std::int64_t> solve(int src, int dst,
                                              std::int64_t maxFlow);

  /// Flow currently on an arc (after solve).
  std::int64_t flowOn(int arc) const;

 private:
  struct Arc {
    int to;
    std::int64_t capacity;
    std::int64_t cost;
    std::int64_t originalCapacity;
  };
  void buildAdjacency();

  std::size_t nodeCount_ = 0;
  std::vector<Arc> arcs_;  ///< twin of arc a is a ^ 1
  /// CSR adjacency: node u's arc ids are adjacency_[firstArc_[u] ..
  /// firstArc_[u + 1]); rebuilt by the first solve after a change.
  std::vector<int> firstArc_;
  std::vector<int> adjacency_;
  bool adjacencyCurrent_ = false;
  std::vector<std::int64_t> potential_;
  std::vector<std::int64_t> dist_;
  std::vector<int> parentArc_;
  std::vector<std::pair<std::int64_t, int>> heap_;
};

/// Dinic max-flow with unit-friendly performance; integer capacities.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t nodeCount);
  int addArc(int from, int to, std::int64_t capacity);
  std::int64_t solve(int src, int dst);

 private:
  struct Arc {
    int to;
    std::int64_t capacity;
    int twin;
  };
  bool buildLevels(int src, int dst);
  std::int64_t push(int node, int dst, std::int64_t limit);

  std::vector<Arc> arcs_;
  std::vector<std::vector<int>> adjacency_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

}  // namespace dg::graph
