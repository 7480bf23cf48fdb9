#include "graph/dissemination_graph.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

namespace dg::graph {

DisseminationGraph::DisseminationGraph(const Graph& graph, NodeId source,
                                       NodeId destination)
    : graph_(&graph),
      source_(source),
      destination_(destination),
      member_(graph.edgeCount(), 0),
      outEdges_(graph.nodeCount()) {}

void DisseminationGraph::addEdge(EdgeId id) {
  if (member_[id]) return;
  member_[id] = 1;
  edges_.insert(std::lower_bound(edges_.begin(), edges_.end(), id), id);
  auto& out = outEdges_[graph_->edge(id).from];
  out.insert(std::lower_bound(out.begin(), out.end(), id), id);
}

void DisseminationGraph::addPath(const Path& path) {
  for (const EdgeId id : path) addEdge(id);
}

void DisseminationGraph::unite(const DisseminationGraph& other) {
  for (const EdgeId id : other.edges_) addEdge(id);
}

void DisseminationGraph::clear() {
  for (const EdgeId id : edges_) {
    member_[id] = 0;
    outEdges_[graph_->edge(id).from].clear();
  }
  edges_.clear();
}

std::vector<NodeId> DisseminationGraph::reachableNodes() const {
  std::vector<char> seen(graph_->nodeCount(), 0);
  std::queue<NodeId> frontier;
  seen[source_] = 1;
  frontier.push(source_);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const EdgeId id : outEdges_[u]) {
      const NodeId v = graph_->edge(id).to;
      if (!seen[v]) {
        seen[v] = 1;
        frontier.push(v);
      }
    }
  }
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < graph_->nodeCount(); ++n) {
    if (seen[n]) nodes.push_back(n);
  }
  return nodes;
}

bool DisseminationGraph::connectsFlow() const {
  const auto nodes = reachableNodes();
  return std::binary_search(nodes.begin(), nodes.end(), destination_);
}

std::vector<util::SimTime> DisseminationGraph::earliestArrival(
    std::span<const util::SimTime> weights) const {
  std::vector<util::SimTime> dist(graph_->nodeCount(), util::kNever);
  using Entry = std::pair<util::SimTime, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[source_] = 0;
  queue.push({0, source_});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    for (const EdgeId id : outEdges_[u]) {
      const util::SimTime w = weights[id];
      if (w == util::kNever) continue;
      const NodeId v = graph_->edge(id).to;
      const util::SimTime nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        queue.push({nd, v});
      }
    }
  }
  return dist;
}

util::SimTime DisseminationGraph::latencyToDestination(
    std::span<const util::SimTime> weights) const {
  return earliestArrival(weights)[destination_];
}

int DisseminationGraph::cost(std::span<const util::SimTime> weights) const {
  // Determine each node's first-arrival predecessor under `weights`; the
  // no-echo rule suppresses the transmission back to that predecessor.
  std::vector<util::SimTime> dist(graph_->nodeCount(), util::kNever);
  std::vector<NodeId> pred(graph_->nodeCount(), kInvalidNode);
  using Entry = std::pair<util::SimTime, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[source_] = 0;
  queue.push({0, source_});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    for (const EdgeId id : outEdges_[u]) {
      const util::SimTime w = weights[id];
      if (w == util::kNever) continue;
      const NodeId v = graph_->edge(id).to;
      const util::SimTime nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        pred[v] = u;
        queue.push({nd, v});
      }
    }
  }
  int transmissions = 0;
  for (NodeId u = 0; u < graph_->nodeCount(); ++u) {
    if (dist[u] == util::kNever) continue;  // node never receives the packet
    for (const EdgeId id : outEdges_[u]) {
      if (weights[id] == util::kNever) continue;
      const NodeId v = graph_->edge(id).to;
      if (u != source_ && v == pred[u]) continue;  // no-echo suppression
      ++transmissions;
    }
  }
  return transmissions;
}

int DisseminationGraph::cost() const {
  const auto weights = graph_->baseLatencies();
  return cost(weights);
}

int DisseminationGraph::pruneDeadlineInfeasible(
    std::span<const util::SimTime> weights, util::SimTime deadline) {
  int removedTotal = 0;
  for (;;) {
    const auto arrival = earliestArrival(weights);
    // Shortest distance from each node to the destination *within* the
    // dissemination graph: Dijkstra on reversed member edges.
    std::vector<util::SimTime> toDst(graph_->nodeCount(), util::kNever);
    using Entry = std::pair<util::SimTime, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    toDst[destination_] = 0;
    queue.push({0, destination_});
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > toDst[u]) continue;
      for (const EdgeId id : edges_) {
        const Edge& e = graph_->edge(id);
        if (e.to != u) continue;
        const util::SimTime w = weights[id];
        if (w == util::kNever) continue;
        const util::SimTime nd = d + w;
        if (nd < toDst[e.from]) {
          toDst[e.from] = nd;
          queue.push({nd, e.from});
        }
      }
    }

    std::vector<EdgeId> keep;
    keep.reserve(edges_.size());
    for (const EdgeId id : edges_) {
      const Edge& e = graph_->edge(id);
      const util::SimTime w = weights[id];
      const bool feasible =
          arrival[e.from] != util::kNever && w != util::kNever &&
          toDst[e.to] != util::kNever &&
          arrival[e.from] + w + toDst[e.to] <= deadline;
      if (feasible) keep.push_back(id);
    }
    const int removed = static_cast<int>(edges_.size() - keep.size());
    if (removed == 0) return removedTotal;
    removedTotal += removed;
    std::fill(member_.begin(), member_.end(), 0);
    for (auto& out : outEdges_) out.clear();
    edges_.clear();
    for (const EdgeId id : keep) addEdge(id);
  }
}

std::string DisseminationGraph::toDot(
    const std::function<std::string(NodeId)>& name) const {
  std::ostringstream out;
  out << "digraph dissemination {\n";
  out << "  rankdir=LR;\n";
  const auto nodes = reachableNodes();
  for (const NodeId n : nodes) {
    out << "  \"" << name(n) << "\"";
    if (n == source_) {
      out << " [shape=doublecircle,style=filled,fillcolor=lightblue]";
    } else if (n == destination_) {
      out << " [shape=doubleoctagon,style=filled,fillcolor=lightgreen]";
    }
    out << ";\n";
  }
  for (const EdgeId id : edges_) {
    const Edge& e = graph_->edge(id);
    out << "  \"" << name(e.from) << "\" -> \"" << name(e.to) << "\" [label=\""
        << util::formatDuration(e.latency) << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

DisseminationGraph singlePathGraph(const Graph& graph, NodeId src, NodeId dst,
                                   const Path& path) {
  DisseminationGraph dg(graph, src, dst);
  dg.addPath(path);
  return dg;
}

DisseminationGraph multiPathGraph(const Graph& graph, NodeId src, NodeId dst,
                                  std::span<const Path> paths) {
  DisseminationGraph dg(graph, src, dst);
  for (const Path& path : paths) dg.addPath(path);
  return dg;
}

DisseminationGraph floodingGraph(const Graph& graph, NodeId src, NodeId dst) {
  DisseminationGraph dg(graph, src, dst);
  for (EdgeId id = 0; id < graph.edgeCount(); ++id) dg.addEdge(id);
  return dg;
}

}  // namespace dg::graph
