#include "graph/dissemination_graph.hpp"

#include <gtest/gtest.h>

#include "graph/disjoint_paths.hpp"
#include "test_support.hpp"
#include "trace/topology.hpp"

namespace dg::graph {
namespace {

TEST(DisseminationGraph, EmptyGraphConnectsNothing) {
  test::Diamond d;
  DisseminationGraph dg(d.g, d.s, d.d);
  EXPECT_EQ(dg.edgeCount(), 0u);
  EXPECT_FALSE(dg.connectsFlow());
  EXPECT_EQ(dg.latencyToDestination(d.g.baseLatencies()), util::kNever);
}

TEST(DisseminationGraph, AddEdgeIdempotent) {
  test::Diamond d;
  DisseminationGraph dg(d.g, d.s, d.d);
  dg.addEdge(d.sa);
  dg.addEdge(d.sa);
  EXPECT_EQ(dg.edgeCount(), 1u);
  EXPECT_TRUE(dg.contains(d.sa));
  EXPECT_FALSE(dg.contains(d.ad));
}

TEST(DisseminationGraph, ClearThenRebuildEqualsFreshGraph) {
  test::Diamond d;
  DisseminationGraph dg = floodingGraph(d.g, d.s, d.d);
  dg.clear();
  EXPECT_EQ(dg.edgeCount(), 0u);
  EXPECT_FALSE(dg.contains(d.sa));
  EXPECT_TRUE(dg.outEdges(d.s).empty());
  dg.addPath(Path{d.sb, d.bd});
  const auto fresh = singlePathGraph(d.g, d.s, d.d, Path{d.sb, d.bd});
  EXPECT_TRUE(dg == fresh);
  EXPECT_EQ(dg.cost(), fresh.cost());
  EXPECT_TRUE(dg.outEdges(d.a).empty());
}

TEST(DisseminationGraph, SinglePathSemantics) {
  test::Diamond d;
  const auto dg = singlePathGraph(d.g, d.s, d.d, Path{d.sa, d.ad});
  EXPECT_TRUE(dg.connectsFlow());
  const auto weights = d.g.baseLatencies();
  EXPECT_EQ(dg.latencyToDestination(weights), util::milliseconds(20));
  EXPECT_EQ(dg.cost(), 2);
  EXPECT_TRUE(dg.meetsDeadline(weights, util::milliseconds(20)));
  EXPECT_FALSE(dg.meetsDeadline(weights, util::milliseconds(19)));
}

TEST(DisseminationGraph, TwoPathCostIsSumOfLengths) {
  test::Diamond d;
  const std::vector<Path> paths{{d.sa, d.ad}, {d.sb, d.bd}};
  const auto dg = multiPathGraph(d.g, d.s, d.d, paths);
  EXPECT_EQ(dg.cost(), 4);
  EXPECT_EQ(dg.edgeCount(), 4u);
}

TEST(DisseminationGraph, ReachableNodes) {
  test::Diamond d;
  const auto dg = singlePathGraph(d.g, d.s, d.d, Path{d.sa, d.ad});
  const auto nodes = dg.reachableNodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], d.s);
}

TEST(DisseminationGraph, EarliestArrivalUsesBestRoute) {
  test::Diamond d;
  DisseminationGraph dg(d.g, d.s, d.d);
  dg.addPath(Path{d.sa, d.ad});
  dg.addPath(Path{d.sb, d.bd});
  auto weights = d.g.baseLatencies();
  weights[d.ad] = util::kNever;  // fast route cut mid-way
  EXPECT_EQ(dg.latencyToDestination(weights), util::milliseconds(30));
}

TEST(DisseminationGraph, FloodingCoversAllEdgesWithNoEchoCost) {
  test::Diamond d;
  const auto dg = floodingGraph(d.g, d.s, d.d);
  EXPECT_EQ(dg.edgeCount(), d.g.edgeCount());
  // Cost: every node transmits on member out-edges except back to its
  // first-arrival predecessor; the source uses all its out-edges.
  // Diamond: S:2, A:(3-1)=2, B:(3-1)=2, D:(2-1)=1 -> 7.
  EXPECT_EQ(dg.cost(), 7);
}

TEST(DisseminationGraph, UniteMergesEdges) {
  test::Diamond d;
  auto a = singlePathGraph(d.g, d.s, d.d, Path{d.sa, d.ad});
  const auto b = singlePathGraph(d.g, d.s, d.d, Path{d.sb, d.bd});
  a.unite(b);
  EXPECT_EQ(a.edgeCount(), 4u);
  EXPECT_TRUE(a.contains(d.bd));
}

TEST(DisseminationGraph, EqualityComparesEdgesAndFlow) {
  test::Diamond d;
  const auto a = singlePathGraph(d.g, d.s, d.d, Path{d.sa, d.ad});
  const auto b = singlePathGraph(d.g, d.s, d.d, Path{d.sa, d.ad});
  const auto c = singlePathGraph(d.g, d.s, d.d, Path{d.sb, d.bd});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(DisseminationGraph, PruneRemovesDeadlineInfeasibleEdges) {
  test::Diamond d;
  auto dg = floodingGraph(d.g, d.s, d.d);
  const auto weights = d.g.baseLatencies();
  // Deadline 20ms: only S-A-D can deliver. Everything not on a route
  // that meets the deadline must go.
  const int removed = dg.pruneDeadlineInfeasible(weights,
                                                 util::milliseconds(20));
  EXPECT_GT(removed, 0);
  EXPECT_TRUE(dg.connectsFlow());
  EXPECT_EQ(dg.latencyToDestination(weights), util::milliseconds(20));
  for (const EdgeId e : dg.edges()) {
    // Each surviving edge lies on some deadline-feasible route.
    const auto arrival = dg.earliestArrival(weights);
    EXPECT_NE(arrival[d.g.edge(e).from], util::kNever);
  }
  EXPECT_EQ(dg.edgeCount(), 2u);  // exactly S->A, A->D
  EXPECT_TRUE(dg.contains(d.sa));
  EXPECT_TRUE(dg.contains(d.ad));
}

TEST(DisseminationGraph, PruneKeepsEverythingWithLooseDeadline) {
  const auto topology = trace::Topology::ltn12();
  const auto& g = topology.graph();
  auto dg = floodingGraph(g, topology.at("NYC"), topology.at("SJC"));
  const auto before = dg.edgeCount();
  dg.pruneDeadlineInfeasible(g.baseLatencies(), util::seconds(10));
  EXPECT_EQ(dg.edgeCount(), before);
}

TEST(DisseminationGraph, ToDotMentionsEndpointsAndEdges) {
  test::Diamond d;
  const auto dg = singlePathGraph(d.g, d.s, d.d, Path{d.sa, d.ad});
  const auto names = std::vector<std::string>{"S", "A", "B", "D"};
  const std::string dot =
      dg.toDot([&](NodeId n) { return names[n]; });
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"S\" -> \"A\""), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("doubleoctagon"), std::string::npos);
}

TEST(DisseminationGraph, DisconnectedDestinationReachesPartway) {
  // S->A only: the walk reaches A but never D, so the graph neither
  // connects the flow nor reports a finite latency, yet reachableNodes
  // still reports the partial frontier in ascending order.
  test::Diamond d;
  DisseminationGraph dg(d.g, d.s, d.d);
  dg.addEdge(d.sa);
  EXPECT_FALSE(dg.connectsFlow());
  EXPECT_EQ(dg.latencyToDestination(d.g.baseLatencies()), util::kNever);
  const auto nodes = dg.reachableNodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], d.s);
  EXPECT_EQ(nodes[1], d.a);
}

TEST(DisseminationGraph, SourceOnlyGraphReachesJustTheSource) {
  // Edges exist but none leave the source: reachability is {source},
  // and the flow is unconnected even though edgeCount() > 0.
  test::Diamond d;
  DisseminationGraph dg(d.g, d.s, d.d);
  dg.addEdge(d.ad);  // downstream edge the source can never reach
  EXPECT_EQ(dg.edgeCount(), 1u);
  EXPECT_FALSE(dg.connectsFlow());
  const auto nodes = dg.reachableNodes();
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], d.s);
}

TEST(DisseminationGraph, UniteWithOverlappingEdgeSetsDeduplicates) {
  // The two operands share S->A; the union must count it once, and the
  // union of two disconnected halves connects the flow end to end.
  test::Diamond d;
  DisseminationGraph upper(d.g, d.s, d.d);
  upper.addEdge(d.sa);
  DisseminationGraph lower(d.g, d.s, d.d);
  lower.addEdge(d.sa);
  lower.addEdge(d.ad);
  EXPECT_FALSE(upper.connectsFlow());
  upper.unite(lower);
  EXPECT_EQ(upper.edgeCount(), 2u);
  EXPECT_TRUE(upper.connectsFlow());
  EXPECT_TRUE(upper.contains(d.sa));
  EXPECT_TRUE(upper.contains(d.ad));
  // Uniting an identical graph is a no-op.
  upper.unite(lower);
  EXPECT_EQ(upper.edgeCount(), 2u);
  EXPECT_EQ(upper, upper);
}

TEST(DisseminationGraph, UniteWithSelfEquivalentIsIdempotent) {
  test::Diamond d;
  DisseminationGraph dg(d.g, d.s, d.d);
  dg.addPath(Path{d.sa, d.ad});
  DisseminationGraph copy = dg;
  dg.unite(copy);
  EXPECT_EQ(dg, copy);
}

TEST(DisseminationGraph, OutEdgesPerNode) {
  test::Diamond d;
  DisseminationGraph dg(d.g, d.s, d.d);
  dg.addPath(Path{d.sa, d.ad});
  dg.addPath(Path{d.sb, d.bd});
  EXPECT_EQ(dg.outEdges(d.s).size(), 2u);
  EXPECT_EQ(dg.outEdges(d.a).size(), 1u);
  EXPECT_EQ(dg.outEdges(d.d).size(), 0u);
}

}  // namespace
}  // namespace dg::graph
