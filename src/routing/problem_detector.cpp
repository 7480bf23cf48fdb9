#include "routing/problem_detector.hpp"

#include <algorithm>
#include <cmath>

namespace dg::routing {

ProblemDetector::ProblemDetector(const graph::Graph& graph,
                                 DetectorParams params)
    : graph_(&graph), params_(params), baseLatency_(graph.baseLatencies()) {}

bool ProblemDetector::edgeProblem(const NetworkView& view,
                                  graph::EdgeId e) const {
  return view.lossRate(e) >= params_.problemLoss ||
         view.latency(e) >= baseLatency_[e] + params_.problemExtraLatency;
}

std::vector<char> ProblemDetector::problematicEdges(
    const NetworkView& view) const {
  std::vector<char> flags(graph_->edgeCount(), 0);
  for (graph::EdgeId e = 0; e < graph_->edgeCount(); ++e) {
    flags[e] = edgeProblem(view, e) ? 1 : 0;
  }
  return flags;
}

bool ProblemDetector::nodeProblem(const NetworkView& view,
                                  graph::NodeId node) const {
  // Count adjacent *undirected* links with a problem in either direction.
  int problematic = 0;
  int total = 0;
  for (const graph::EdgeId out : graph_->outEdges(node)) {
    ++total;
    bool bad = edgeProblem(view, out);
    if (const auto r = graph_->reverseEdge(out)) {
      bad = bad || edgeProblem(view, *r);
    }
    if (bad) ++problematic;
  }
  if (total == 0) return false;
  const int required = std::max(
      params_.nodeMinLinks,
      static_cast<int>(std::ceil(params_.nodeMinFraction * total)));
  return problematic >= required;
}

FlowProblem ProblemDetector::classify(const NetworkView& view,
                                      graph::NodeId src,
                                      graph::NodeId dst) const {
  FlowProblem problem;
  problem.source = nodeProblem(view, src);
  problem.destination = nodeProblem(view, dst);
  for (graph::EdgeId e = 0; e < graph_->edgeCount(); ++e) {
    const graph::Edge& edge = graph_->edge(e);
    const bool touchesEndpoint = edge.from == src || edge.to == src ||
                                 edge.from == dst || edge.to == dst;
    if (!touchesEndpoint && edgeProblem(view, e)) {
      problem.middle = true;
      break;
    }
  }
  return problem;
}

}  // namespace dg::routing
