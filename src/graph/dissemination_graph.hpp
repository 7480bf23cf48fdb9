// Dissemination graphs: the paper's unified abstraction for routing.
//
// A dissemination graph for a flow (source, destination) is a subgraph of
// the overlay on which the packet is *flooded*: the source transmits on
// all of its subgraph out-edges, and every node that receives the first
// copy of a packet forwards it on all of its subgraph out-edges except
// back to the node it arrived from.  A single path, k disjoint paths and
// full overlay flooding are all special cases, which is what lets one
// forwarding engine implement every routing scheme in the paper.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace dg::graph {

class DisseminationGraph {
 public:
  /// Constructs an empty dissemination graph for flow source->destination
  /// over `graph`. The underlying graph must outlive this object.
  DisseminationGraph(const Graph& graph, NodeId source, NodeId destination);

  NodeId source() const { return source_; }
  NodeId destination() const { return destination_; }
  const Graph& overlay() const { return *graph_; }

  /// Adds one edge; duplicates are ignored.
  void addEdge(EdgeId id);
  /// Adds every edge of a path.
  void addPath(const Path& path);
  /// Adds every edge of another dissemination graph (same overlay/flow).
  void unite(const DisseminationGraph& other);
  /// Removes every edge, keeping the storage for the next build.
  void clear();

  bool contains(EdgeId id) const { return member_[id]; }
  std::size_t edgeCount() const { return edges_.size(); }
  /// Member edges in ascending id order (deterministic iteration).
  const std::vector<EdgeId>& edges() const { return edges_; }
  /// Member out-edges of a node, ascending id order.
  std::span<const EdgeId> outEdges(NodeId node) const {
    return outEdges_[node];
  }

  bool operator==(const DisseminationGraph& other) const {
    return source_ == other.source_ && destination_ == other.destination_ &&
           edges_ == other.edges_;
  }

  /// Nodes reachable from the source along member edges (includes the
  /// source itself), ascending id order.
  std::vector<NodeId> reachableNodes() const;

  /// True if the destination is reachable from the source at all.
  bool connectsFlow() const;

  /// Earliest arrival time at every node when the packet leaves the
  /// source at t=0 and each member edge e delivers after weights[e]
  /// (util::kNever = edge currently unusable). Unreached nodes get
  /// util::kNever.
  std::vector<util::SimTime> earliestArrival(
      std::span<const util::SimTime> weights) const;

  /// Earliest arrival at the destination; util::kNever if unreachable.
  util::SimTime latencyToDestination(
      std::span<const util::SimTime> weights) const;

  bool meetsDeadline(std::span<const util::SimTime> weights,
                     util::SimTime deadline) const {
    return latencyToDestination(weights) <= deadline;
  }

  /// Number of per-packet transmissions under the forwarding rule with no
  /// losses: every reachable node forwards on each member out-edge except
  /// back along the edge the first copy arrived on (first arrival order
  /// determined by the given weights). This is the paper's cost metric
  /// (edge traversals per packet).
  int cost(std::span<const util::SimTime> weights) const;

  /// Cost under the overlay's base latencies.
  int cost() const;

  /// Removes edges that can never contribute an on-time delivery: edge
  /// (u,v) is kept only if earliest(source->u) + w(e) + shortest(v->dst
  /// within the dissemination graph) <= deadline. Repeats to fixpoint.
  /// Returns the number of edges removed.
  int pruneDeadlineInfeasible(std::span<const util::SimTime> weights,
                              util::SimTime deadline);

  /// Graphviz rendering; `name` maps node ids to labels. Highlights
  /// source (doublecircle) and destination (doubleoctagon).
  std::string toDot(const std::function<std::string(NodeId)>& name) const;

 private:
  const Graph* graph_;
  NodeId source_;
  NodeId destination_;
  std::vector<EdgeId> edges_;           // sorted
  std::vector<char> member_;            // edge membership bitset
  std::vector<std::vector<EdgeId>> outEdges_;
};

/// Convenience constructors for the classic schemes.
DisseminationGraph singlePathGraph(const Graph& graph, NodeId src, NodeId dst,
                                   const Path& path);
DisseminationGraph multiPathGraph(const Graph& graph, NodeId src, NodeId dst,
                                  std::span<const Path> paths);
/// Full-overlay flooding graph (every directed edge).
DisseminationGraph floodingGraph(const Graph& graph, NodeId src, NodeId dst);

}  // namespace dg::graph
