// Min-cost-flow oracle: nodeDisjointPaths over the flat-arc / CSR
// MinCostFlow must return exactly what the original adjacency-list
// implementation (frozen below) returns -- the same paths in the same
// order and the same total latency -- on random generator-family
// topologies with random weights, excluded (kNever) edges and k = 1..3,
// and a workspace reused across networks of different sizes must give
// the same answers as a fresh one.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/disjoint_paths.hpp"
#include "graph/graph.hpp"
#include "proptest.hpp"
#include "topogen/topogen.hpp"
#include "util/rng.hpp"

namespace dg::graph {
namespace {

namespace prop = dg::test::prop;

// ---------------------------------------------------------------------
// Frozen oracle: MinCostFlow and the disjoint-path solve as they stood
// with per-node adjacency vectors and a std::priority_queue per
// augmentation. Do not optimize -- its only value is being the unchanged
// baseline the production solver is proven identical against.
// ---------------------------------------------------------------------

class ReferenceMinCostFlow {
 public:
  explicit ReferenceMinCostFlow(std::size_t nodeCount)
      : adjacency_(nodeCount), potential_(nodeCount, 0) {}

  int addArc(int from, int to, std::int64_t capacity, std::int64_t cost) {
    const int id = static_cast<int>(arcs_.size());
    arcs_.push_back(Arc{to, capacity, cost, id + 1});
    arcs_.push_back(Arc{from, 0, -cost, id});
    adjacency_[static_cast<std::size_t>(from)].push_back(id);
    adjacency_[static_cast<std::size_t>(to)].push_back(id + 1);
    originalCapacity_.push_back(capacity);
    originalCapacity_.push_back(0);
    return id;
  }

  std::pair<std::int64_t, std::int64_t> solve(int src, int dst,
                                              std::int64_t maxFlow) {
    constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
    const std::size_t n = adjacency_.size();
    std::int64_t flow = 0;
    std::int64_t totalCost = 0;
    std::fill(potential_.begin(), potential_.end(), 0);
    while (flow < maxFlow) {
      std::vector<std::int64_t> dist(n, kInf);
      std::vector<int> parentArc(n, -1);
      using Entry = std::pair<std::int64_t, int>;
      std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
      dist[static_cast<std::size_t>(src)] = 0;
      queue.push({0, src});
      while (!queue.empty()) {
        const auto [d, u] = queue.top();
        queue.pop();
        if (d > dist[static_cast<std::size_t>(u)]) continue;
        for (const int arcId : adjacency_[static_cast<std::size_t>(u)]) {
          const Arc& arc = arcs_[static_cast<std::size_t>(arcId)];
          if (arc.capacity <= 0) continue;
          const std::int64_t reduced =
              d + arc.cost + potential_[static_cast<std::size_t>(u)] -
              potential_[static_cast<std::size_t>(arc.to)];
          if (reduced < dist[static_cast<std::size_t>(arc.to)]) {
            dist[static_cast<std::size_t>(arc.to)] = reduced;
            parentArc[static_cast<std::size_t>(arc.to)] = arcId;
            queue.push({reduced, arc.to});
          }
        }
      }
      if (dist[static_cast<std::size_t>(dst)] >= kInf) break;
      for (std::size_t i = 0; i < n; ++i) {
        if (dist[i] < kInf) potential_[i] += dist[i];
      }
      std::int64_t bottleneck = maxFlow - flow;
      for (int v = dst; v != src;) {
        const Arc& arc = arcs_[static_cast<std::size_t>(
            parentArc[static_cast<std::size_t>(v)])];
        bottleneck = std::min(bottleneck, arc.capacity);
        v = arcs_[static_cast<std::size_t>(arc.twin)].to;
      }
      for (int v = dst; v != src;) {
        Arc& arc = arcs_[static_cast<std::size_t>(
            parentArc[static_cast<std::size_t>(v)])];
        arc.capacity -= bottleneck;
        arcs_[static_cast<std::size_t>(arc.twin)].capacity += bottleneck;
        totalCost += bottleneck * arc.cost;
        v = arcs_[static_cast<std::size_t>(arc.twin)].to;
      }
      flow += bottleneck;
    }
    return {flow, totalCost};
  }

  std::int64_t flowOn(int arc) const {
    return originalCapacity_[static_cast<std::size_t>(arc)] -
           arcs_[static_cast<std::size_t>(arc)].capacity;
  }

 private:
  struct Arc {
    int to;
    std::int64_t capacity;
    std::int64_t cost;
    int twin;
  };
  std::vector<Arc> arcs_;
  std::vector<std::vector<int>> adjacency_;
  std::vector<std::int64_t> potential_;
  std::vector<std::int64_t> originalCapacity_;
};

DisjointPathsResult referenceNodeDisjointPaths(
    const Graph& graph, NodeId src, NodeId dst,
    const std::vector<util::SimTime>& weights, int k) {
  if (src == dst || k <= 0) return {};
  const auto inNode = [](NodeId v) { return static_cast<int>(2 * v); };
  const auto outNode = [](NodeId v) { return static_cast<int>(2 * v + 1); };
  const std::size_t n = graph.nodeCount();
  ReferenceMinCostFlow flow(2 * n);
  for (NodeId v = 0; v < n; ++v) {
    const bool limited = v != src && v != dst;
    flow.addArc(inNode(v), outNode(v), limited ? 1 : k, 0);
  }
  std::vector<int> arcFor(graph.edgeCount(), -1);
  for (EdgeId e = 0; e < graph.edgeCount(); ++e) {
    const util::SimTime w = weights[e];
    if (w == util::kNever) continue;
    const Edge& edge = graph.edge(e);
    arcFor[e] = flow.addArc(outNode(edge.from), inNode(edge.to), 1, w);
  }
  const auto [sent, cost] = flow.solve(outNode(src), inNode(dst), k);
  (void)cost;
  DisjointPathsResult result;
  if (sent == 0) return result;

  std::vector<std::int64_t> remaining(graph.edgeCount(), 0);
  for (EdgeId e = 0; e < graph.edgeCount(); ++e) {
    if (arcFor[e] >= 0) remaining[e] = flow.flowOn(arcFor[e]);
  }
  for (std::int64_t p = 0; p < sent; ++p) {
    Path path;
    NodeId at = src;
    while (at != dst) {
      bool advanced = false;
      for (const EdgeId e : graph.outEdges(at)) {
        if (remaining[e] > 0) {
          remaining[e] -= 1;
          path.push_back(e);
          at = graph.edge(e).to;
          advanced = true;
          break;
        }
      }
      if (!advanced) throw std::logic_error("reference decomposition stuck");
    }
    result.paths.push_back(std::move(path));
  }
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

// ---------------------------------------------------------------------

/// A topology recipe, an endpoint pair, a weight-perturbation seed and k.
/// `parallel` extra copies of random edges make the overlay a multigraph:
/// parallel arcs are where the order a node scans its arcs in decides
/// which of two equal-cost arcs an augmenting path takes.
struct FlowCase {
  std::string family;
  std::size_t n = 4;
  std::uint64_t topoSeed = 1;
  std::uint64_t weightSeed = 1;
  std::size_t parallel = 0;
  /// Weights drawn from {10, 20, 30} ms: equal-cost alternatives
  /// everywhere, so the heap's tie order decides parent arcs.
  bool quantized = false;
  NodeId src = 0;
  NodeId dst = 1;
  int k = 1;

  std::string spec() const {
    return family + ":n=" + std::to_string(n) +
           ",seed=" + std::to_string(topoSeed);
  }

  /// The overlay, and the weights: base latencies scaled by random
  /// factors (or quantized), ~15% of edges excluded, occasional exact
  /// ties, and each parallel copy weighted like its original (a
  /// guaranteed tie).
  Graph build(std::vector<util::SimTime>& weights) const {
    const Graph base = topogen::generateTopology(spec()).graph();
    Graph g;
    g.addNodes(base.nodeCount());
    for (EdgeId e = 0; e < base.edgeCount(); ++e) {
      g.addEdge(base.edge(e).from, base.edge(e).to, base.edge(e).latency);
    }
    util::Rng rng(weightSeed);
    weights = base.baseLatencies();
    for (util::SimTime& w : weights) {
      if (rng.bernoulli(0.15)) {
        w = util::kNever;
      } else if (quantized) {
        w = util::milliseconds(
            10 * (1 + rng.uniformInt(std::int64_t{0}, std::int64_t{2})));
      } else if (rng.bernoulli(0.2)) {
        w = util::milliseconds(10);
      } else {
        w = static_cast<util::SimTime>(static_cast<double>(w) *
                                       rng.uniform(0.5, 3.0));
      }
    }
    for (std::size_t i = 0; i < parallel; ++i) {
      const auto original =
          static_cast<EdgeId>(rng.uniformInt(std::uint64_t{base.edgeCount()}));
      const Edge& copy = base.edge(original);
      g.addEdge(copy.from, copy.to, copy.latency);
      weights.push_back(weights[original]);
    }
    return g;
  }
};

FlowCase genFlowCase(util::Rng& rng) {
  static const char* kFamilies[] = {"mesh", "ring", "scale-free"};
  FlowCase c;
  c.family = kFamilies[rng.uniformInt(std::uint64_t{3})];
  c.n = static_cast<std::size_t>(4 + rng.uniformInt(std::uint64_t{36}));
  c.topoSeed = rng.next() >> 1;
  c.weightSeed = rng.next() >> 1;
  c.parallel = rng.bernoulli(0.5) ? 0 : static_cast<std::size_t>(
                                            1 + rng.uniformInt(c.n));
  c.quantized = rng.bernoulli(0.35);
  c.src = static_cast<NodeId>(rng.uniformInt(c.n));
  c.dst = static_cast<NodeId>(rng.uniformInt(c.n - 1));
  if (c.dst >= c.src) ++c.dst;
  c.k = static_cast<int>(1 + rng.uniformInt(std::uint64_t{3}));
  return c;
}

std::string describeFlowCase(const FlowCase& c) {
  std::ostringstream out;
  out << "  spec: " << c.spec() << " src=" << c.src << " dst=" << c.dst
      << " k=" << c.k << " weightSeed=" << c.weightSeed
      << " parallel=" << c.parallel << " quantized=" << c.quantized
      << "\n";
  return out.str();
}

std::string compare(const DisjointPathsResult& got,
                    const DisjointPathsResult& want) {
  if (got.paths != want.paths) {
    return prop::fail("paths differ (" + std::to_string(got.paths.size()) +
                      " paths vs the oracle's " +
                      std::to_string(want.paths.size()) + ")");
  }
  if (got.totalLatency != want.totalLatency) {
    return prop::fail("totalLatency " + std::to_string(got.totalLatency) +
                      " != oracle " + std::to_string(want.totalLatency));
  }
  return prop::pass();
}

TEST(MinCostFlowOracle, NodeDisjointPathsMatchFrozenImplementation) {
  DisjointPathsWorkspace reused;  // carried across every case
  prop::forAll(
      "nodeDisjointPaths equals the frozen adjacency-list solver",
      genFlowCase,
      [&](const FlowCase& c) {
        std::vector<util::SimTime> weights;
        const Graph g = c.build(weights);
        const auto want =
            referenceNodeDisjointPaths(g, c.src, c.dst, weights, c.k);
        std::string failure =
            compare(nodeDisjointPaths(g, c.src, c.dst, weights, c.k), want);
        if (!failure.empty()) return "fresh workspace: " + failure;
        failure = compare(
            nodeDisjointPaths(g, c.src, c.dst, weights, c.k, reused), want);
        if (!failure.empty()) return "reused workspace: " + failure;
        return prop::pass();
      },
      describeFlowCase);
}

TEST(MinCostFlowOracle, ReusedWorkspaceMatchesFreshAcrossNodeCounts) {
  // Alternate large and small networks through one workspace so stale
  // arcs, adjacency offsets or potentials from a bigger solve would show.
  const char* specs[] = {"scale-free:n=60,seed=3", "ring:n=5,seed=1",
                         "mesh:n=30,seed=9", "ltn12", "mesh:n=6,seed=2",
                         "scale-free:n=100,seed=5"};
  DisjointPathsWorkspace reused;
  for (int round = 0; round < 2; ++round) {
    for (const char* spec : specs) {
      const auto topology = topogen::generateTopology(spec);
      const Graph& g = topology.graph();
      std::vector<util::SimTime> weights = g.baseLatencies();
      util::Rng rng(17 + static_cast<std::uint64_t>(round));
      for (util::SimTime& w : weights) {
        if (rng.bernoulli(0.15)) w = util::kNever;
      }
      for (int k = 1; k <= 3; ++k) {
        for (NodeId dst = 1; dst < std::min<std::size_t>(g.nodeCount(), 8);
             ++dst) {
          DisjointPathsWorkspace fresh;
          const auto want = nodeDisjointPaths(g, 0, dst, weights, k, fresh);
          const auto got = nodeDisjointPaths(g, 0, dst, weights, k, reused);
          EXPECT_EQ(got.paths, want.paths)
              << spec << " k=" << k << " dst=" << dst;
          EXPECT_EQ(got.totalLatency, want.totalLatency)
              << spec << " k=" << k << " dst=" << dst;
        }
      }
    }
  }
}

TEST(MinCostFlowOracle, ResetKeepsSolvingCorrectly) {
  // One MinCostFlow instance reused through reset() behaves like a new
  // one: the detour network of PrefersCheapPath, then a smaller network.
  MinCostFlow flow(3);
  flow.addArc(0, 2, 1, 10);
  flow.addArc(0, 1, 1, 2);
  flow.addArc(1, 2, 1, 2);
  using Sent = std::pair<std::int64_t, std::int64_t>;
  EXPECT_EQ(flow.solve(0, 2, 2), (Sent{2, 14}));
  flow.reset(2);
  const int arc = flow.addArc(0, 1, 3, 5);
  EXPECT_EQ(flow.solve(0, 1, 2), (Sent{2, 10}));
  EXPECT_EQ(flow.flowOn(arc), 2);
}

}  // namespace
}  // namespace dg::graph
