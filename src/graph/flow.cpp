#include "graph/flow.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>

namespace dg::graph {

namespace {
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
}

MinCostFlow::MinCostFlow(std::size_t nodeCount) { reset(nodeCount); }

void MinCostFlow::reset(std::size_t nodeCount) {
  nodeCount_ = nodeCount;
  arcs_.clear();
  adjacencyCurrent_ = false;
  potential_.resize(nodeCount);
  dist_.resize(nodeCount);
  parentArc_.resize(nodeCount);
}

int MinCostFlow::addArc(int from, int to, std::int64_t capacity,
                        std::int64_t cost) {
  if (cost < 0) throw std::invalid_argument("MinCostFlow: negative cost");
  const int id = static_cast<int>(arcs_.size());
  arcs_.push_back(Arc{to, capacity, cost, capacity});
  arcs_.push_back(Arc{from, 0, -cost, 0});
  adjacencyCurrent_ = false;
  return id;
}

void MinCostFlow::buildAdjacency() {
  // Stable counting sort of arc ids by tail node (the tail of arc a is
  // the head of its twin a ^ 1): ids are placed in ascending order, so
  // each node's arcs keep the order addArc saw them in.
  firstArc_.assign(nodeCount_ + 1, 0);
  for (std::size_t a = 0; a < arcs_.size(); ++a) {
    ++firstArc_[static_cast<std::size_t>(arcs_[a ^ 1].to) + 1];
  }
  for (std::size_t u = 0; u < nodeCount_; ++u) {
    firstArc_[u + 1] += firstArc_[u];
  }
  adjacency_.resize(arcs_.size());
  // parentArc_ doubles as the per-node insertion cursor; solve() resets
  // it before every Dijkstra.
  std::copy_n(firstArc_.begin(), nodeCount_, parentArc_.begin());
  for (std::size_t a = 0; a < arcs_.size(); ++a) {
    const auto u = static_cast<std::size_t>(arcs_[a ^ 1].to);
    adjacency_[static_cast<std::size_t>(parentArc_[u]++)] =
        static_cast<int>(a);
  }
  adjacencyCurrent_ = true;
}

// dgcheck: hot
std::pair<std::int64_t, std::int64_t> MinCostFlow::solve(
    int src, int dst, std::int64_t maxFlow) {
  if (!adjacencyCurrent_) buildAdjacency();
  // Each relaxation pushes at most one entry, so one Dijkstra never holds
  // more than arcs + 1 of them.
  heap_.reserve(arcs_.size() + 1);
  std::int64_t flow = 0;
  std::int64_t totalCost = 0;
  std::fill(potential_.begin(), potential_.end(), 0);
  const auto heapOrder = std::greater<>{};

  while (flow < maxFlow) {
    // Dijkstra on reduced costs.
    std::fill(dist_.begin(), dist_.end(), kInf);
    std::fill(parentArc_.begin(), parentArc_.end(), -1);
    heap_.clear();
    dist_[static_cast<std::size_t>(src)] = 0;
    heap_.push_back({0, src});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), heapOrder);
      const auto [d, u] = heap_.back();
      heap_.pop_back();
      if (d > dist_[static_cast<std::size_t>(u)]) continue;
      const auto uIndex = static_cast<std::size_t>(u);
      for (int i = firstArc_[uIndex]; i < firstArc_[uIndex + 1]; ++i) {
        const int arcId = adjacency_[static_cast<std::size_t>(i)];
        const Arc& arc = arcs_[static_cast<std::size_t>(arcId)];
        if (arc.capacity <= 0) continue;
        const std::int64_t reduced =
            d + arc.cost + potential_[uIndex] -
            potential_[static_cast<std::size_t>(arc.to)];
        if (reduced < dist_[static_cast<std::size_t>(arc.to)]) {
          dist_[static_cast<std::size_t>(arc.to)] = reduced;
          parentArc_[static_cast<std::size_t>(arc.to)] = arcId;
          heap_.push_back({reduced, arc.to});
          std::push_heap(heap_.begin(), heap_.end(), heapOrder);
        }
      }
    }
    if (dist_[static_cast<std::size_t>(dst)] >= kInf) break;  // no more paths

    for (std::size_t i = 0; i < nodeCount_; ++i) {
      if (dist_[i] < kInf) potential_[i] += dist_[i];
    }

    // Find bottleneck and augment by it (capacities here are small).
    std::int64_t bottleneck = maxFlow - flow;
    for (int v = dst; v != src;) {
      const int arcId = parentArc_[static_cast<std::size_t>(v)];
      bottleneck = std::min(bottleneck,
                            arcs_[static_cast<std::size_t>(arcId)].capacity);
      v = arcs_[static_cast<std::size_t>(arcId ^ 1)].to;
    }
    for (int v = dst; v != src;) {
      const int arcId = parentArc_[static_cast<std::size_t>(v)];
      Arc& arc = arcs_[static_cast<std::size_t>(arcId)];
      Arc& twin = arcs_[static_cast<std::size_t>(arcId ^ 1)];
      arc.capacity -= bottleneck;
      twin.capacity += bottleneck;
      totalCost += bottleneck * arc.cost;
      v = twin.to;
    }
    flow += bottleneck;
  }
  return {flow, totalCost};
}

std::int64_t MinCostFlow::flowOn(int arc) const {
  const Arc& a = arcs_[static_cast<std::size_t>(arc)];
  return a.originalCapacity - a.capacity;
}

MaxFlow::MaxFlow(std::size_t nodeCount)
    : adjacency_(nodeCount), level_(nodeCount), iter_(nodeCount) {}

int MaxFlow::addArc(int from, int to, std::int64_t capacity) {
  const int id = static_cast<int>(arcs_.size());
  arcs_.push_back(Arc{to, capacity, id + 1});
  arcs_.push_back(Arc{from, 0, id});
  adjacency_[static_cast<std::size_t>(from)].push_back(id);
  adjacency_[static_cast<std::size_t>(to)].push_back(id + 1);
  return id;
}

bool MaxFlow::buildLevels(int src, int dst) {
  std::fill(level_.begin(), level_.end(), -1);
  std::queue<int> queue;
  level_[static_cast<std::size_t>(src)] = 0;
  queue.push(src);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    for (const int arcId : adjacency_[static_cast<std::size_t>(u)]) {
      const Arc& arc = arcs_[static_cast<std::size_t>(arcId)];
      if (arc.capacity > 0 && level_[static_cast<std::size_t>(arc.to)] < 0) {
        level_[static_cast<std::size_t>(arc.to)] =
            level_[static_cast<std::size_t>(u)] + 1;
        queue.push(arc.to);
      }
    }
  }
  return level_[static_cast<std::size_t>(dst)] >= 0;
}

std::int64_t MaxFlow::push(int node, int dst, std::int64_t limit) {
  if (node == dst) return limit;
  for (std::size_t& i = iter_[static_cast<std::size_t>(node)];
       i < adjacency_[static_cast<std::size_t>(node)].size(); ++i) {
    const int arcId = adjacency_[static_cast<std::size_t>(node)][i];
    Arc& arc = arcs_[static_cast<std::size_t>(arcId)];
    if (arc.capacity <= 0 || level_[static_cast<std::size_t>(arc.to)] !=
                                 level_[static_cast<std::size_t>(node)] + 1)
      continue;
    const std::int64_t pushed =
        push(arc.to, dst, std::min(limit, arc.capacity));
    if (pushed > 0) {
      arc.capacity -= pushed;
      arcs_[static_cast<std::size_t>(arc.twin)].capacity += pushed;
      return pushed;
    }
  }
  return 0;
}

std::int64_t MaxFlow::solve(int src, int dst) {
  std::int64_t flow = 0;
  while (buildLevels(src, dst)) {
    std::fill(iter_.begin(), iter_.end(), 0);
    while (true) {
      const std::int64_t pushed = push(src, dst, kInf);
      if (pushed == 0) break;
      flow += pushed;
    }
  }
  return flow;
}

}  // namespace dg::graph
