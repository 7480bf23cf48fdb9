// Minimum-total-latency disjoint path sets (Suurballe/Bhandari family,
// implemented via min-cost flow on a node-split transform).
//
// The paper's "two disjoint paths" schemes use *node*-disjoint paths:
// sharing an intermediate overlay node would let a single data-center
// problem take out both paths, which is exactly the failure mode the
// targeted-redundancy graphs are designed around.
#pragma once

#include <span>
#include <vector>

#include "graph/flow.hpp"
#include "graph/graph.hpp"

namespace dg::graph {

struct DisjointPathsResult {
  /// Paths found, each a valid src->dst edge sequence; size <= requested k.
  /// Paths are sorted by ascending individual latency.
  std::vector<Path> paths;
  /// Sum of latencies of all returned paths.
  util::SimTime totalLatency = 0;
};

/// Caller-owned scratch for the disjoint-path solvers: the min-cost-flow
/// network and the per-edge flow-decomposition arrays. Reusing one across
/// solves leaves the returned paths as the only allocations; results do
/// not depend on what the workspace solved before.
struct DisjointPathsWorkspace {
  MinCostFlow flow{0};
  std::vector<int> arcFor;              ///< graph edge -> flow arc id
  std::vector<std::int64_t> remaining;  ///< unit flow left per edge
};

/// Finds up to k pairwise node-disjoint (interior nodes) src->dst paths
/// minimising total latency, under the given per-edge weights
/// (util::kNever excludes an edge). Fewer than k paths are returned when
/// the connectivity does not allow k.
DisjointPathsResult nodeDisjointPaths(const Graph& graph, NodeId src,
                                      NodeId dst,
                                      std::span<const util::SimTime> weights,
                                      int k);

/// As above, with scratch memory from `workspace`.
DisjointPathsResult nodeDisjointPaths(const Graph& graph, NodeId src,
                                      NodeId dst,
                                      std::span<const util::SimTime> weights,
                                      int k,
                                      DisjointPathsWorkspace& workspace);

/// Edge-disjoint variant (paths may share intermediate nodes). Kept for
/// ablation: the paper argues node-disjointness matters because problems
/// cluster at data centers.
DisjointPathsResult edgeDisjointPaths(const Graph& graph, NodeId src,
                                      NodeId dst,
                                      std::span<const util::SimTime> weights,
                                      int k);

/// Maximum number of node-disjoint src->dst paths (connectivity), via
/// max-flow on the node-split transform with unit capacities.
int maxNodeDisjointPaths(const Graph& graph, NodeId src, NodeId dst,
                         std::span<const util::SimTime> weights);

}  // namespace dg::graph
