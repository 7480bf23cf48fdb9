#include "graph/disjoint_paths.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/flow.hpp"

namespace dg::graph {

namespace {

// Node-split transform ids: in(v) = 2v, out(v) = 2v+1.
int inNode(NodeId v) { return static_cast<int>(2 * v); }
int outNode(NodeId v) { return static_cast<int>(2 * v + 1); }

/// Decomposes a unit flow into paths by repeatedly walking saturated arcs
/// from src; ws.arcFor[e] maps each usable graph edge to its flow arc id.
std::vector<Path> decomposeUnitFlow(const Graph& graph, NodeId src,
                                    NodeId dst, DisjointPathsWorkspace& ws,
                                    std::int64_t pathCount) {
  // Remaining flow per edge; each path consumes one unit.
  ws.remaining.assign(graph.edgeCount(), 0);
  for (EdgeId e = 0; e < graph.edgeCount(); ++e) {
    if (ws.arcFor[e] >= 0) ws.remaining[e] = ws.flow.flowOn(ws.arcFor[e]);
  }
  std::vector<Path> paths;
  for (std::int64_t p = 0; p < pathCount; ++p) {
    Path path;
    NodeId at = src;
    while (at != dst) {
      bool advanced = false;
      for (const EdgeId e : graph.outEdges(at)) {
        if (ws.remaining[e] > 0) {
          ws.remaining[e] -= 1;
          path.push_back(e);
          at = graph.edge(e).to;
          advanced = true;
          break;
        }
      }
      if (!advanced) {
        throw std::logic_error(
            "disjoint paths: flow decomposition stuck (internal error)");
      }
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

DisjointPathsResult solveDisjoint(const Graph& graph, NodeId src, NodeId dst,
                                  std::span<const util::SimTime> weights,
                                  int k, bool nodeDisjoint,
                                  DisjointPathsWorkspace& ws) {
  if (src == dst || k <= 0) return {};
  const std::size_t n = graph.nodeCount();

  MinCostFlow& flow = ws.flow;
  flow.reset(2 * n);
  // Internal arcs: capacity 1 for interior nodes enforces node
  // disjointness; src/dst (and everything in the edge-disjoint variant)
  // get capacity k.
  for (NodeId v = 0; v < n; ++v) {
    const bool limited = nodeDisjoint && v != src && v != dst;
    flow.addArc(inNode(v), outNode(v), limited ? 1 : k, 0);
  }
  ws.arcFor.assign(graph.edgeCount(), -1);
  for (EdgeId e = 0; e < graph.edgeCount(); ++e) {
    const util::SimTime w = weights[e];
    if (w == util::kNever) continue;
    const Edge& edge = graph.edge(e);
    ws.arcFor[e] = flow.addArc(outNode(edge.from), inNode(edge.to), 1, w);
  }

  const auto [sent, cost] = flow.solve(outNode(src), inNode(dst), k);
  (void)cost;
  DisjointPathsResult result;
  if (sent == 0) return result;
  result.paths = decomposeUnitFlow(graph, src, dst, ws, sent);
  for (const Path& path : result.paths) {
    result.totalLatency += pathLatency(graph, path, weights);
  }
  std::sort(result.paths.begin(), result.paths.end(),
            [&](const Path& a, const Path& b) {
              return pathLatency(graph, a, weights) <
                     pathLatency(graph, b, weights);
            });
  return result;
}

}  // namespace

DisjointPathsResult nodeDisjointPaths(const Graph& graph, NodeId src,
                                      NodeId dst,
                                      std::span<const util::SimTime> weights,
                                      int k) {
  DisjointPathsWorkspace ws;
  return nodeDisjointPaths(graph, src, dst, weights, k, ws);
}

DisjointPathsResult nodeDisjointPaths(const Graph& graph, NodeId src,
                                      NodeId dst,
                                      std::span<const util::SimTime> weights,
                                      int k, DisjointPathsWorkspace& ws) {
  return solveDisjoint(graph, src, dst, weights, k, /*nodeDisjoint=*/true,
                       ws);
}

DisjointPathsResult edgeDisjointPaths(const Graph& graph, NodeId src,
                                      NodeId dst,
                                      std::span<const util::SimTime> weights,
                                      int k) {
  DisjointPathsWorkspace ws;
  return solveDisjoint(graph, src, dst, weights, k, /*nodeDisjoint=*/false,
                       ws);
}

int maxNodeDisjointPaths(const Graph& graph, NodeId src, NodeId dst,
                         std::span<const util::SimTime> weights) {
  if (src == dst) return 0;
  const std::size_t n = graph.nodeCount();
  MaxFlow flow(2 * n);
  for (NodeId v = 0; v < n; ++v) {
    const bool limited = v != src && v != dst;
    flow.addArc(inNode(v), outNode(v),
                limited ? 1 : static_cast<std::int64_t>(n));
  }
  for (EdgeId e = 0; e < graph.edgeCount(); ++e) {
    if (weights[e] == util::kNever) continue;
    const Edge& edge = graph.edge(e);
    flow.addArc(outNode(edge.from), inNode(edge.to), 1);
  }
  return static_cast<int>(flow.solve(outNode(src), inNode(dst)));
}

}  // namespace dg::graph
