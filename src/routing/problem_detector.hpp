// Problem detection and classification.
//
// The targeted-redundancy approach rests on the paper's empirical
// observation that serious problems cluster around data centers: instead
// of chasing the momentarily-best path (hopeless against intermittent
// loss, because measurements lag reality), the detector answers the
// coarser -- and far more stable -- question "is there currently a
// problem around the source? around the destination? elsewhere?", and the
// scheme switches to a precomputed graph with redundancy in that area.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "routing/network_view.hpp"

namespace dg::routing {

struct DetectorParams {
  /// A directed link is problematic if its measured loss rate is at or
  /// above this...
  double problemLoss = 0.05;
  /// ...or its latency exceeds its healthy baseline by at least this.
  util::SimTime problemExtraLatency = util::milliseconds(15);
  /// A node has a problem when at least this many of its adjacent
  /// undirected links are problematic...
  int nodeMinLinks = 2;
  /// ...and at least this fraction of them.
  double nodeMinFraction = 0.3;

  bool operator==(const DetectorParams&) const = default;
};

/// Per-flow classification of the current situation.
struct FlowProblem {
  bool source = false;       ///< problem around the source node
  bool destination = false;  ///< problem around the destination node
  bool middle = false;       ///< problematic link(s) not adjacent to either

  bool any() const { return source || destination || middle; }
  bool operator==(const FlowProblem&) const = default;
};

class ProblemDetector {
 public:
  ProblemDetector(const graph::Graph& graph, DetectorParams params);

  const DetectorParams& params() const { return params_; }

  /// Per-directed-edge problem flags under the view.
  std::vector<char> problematicEdges(const NetworkView& view) const;

  /// True if `node` currently has a data-center-level problem.
  bool nodeProblem(const NetworkView& view, graph::NodeId node) const;

  /// Classifies the situation for a flow. `middle` is set when any
  /// problematic link touches neither src nor dst. Each edge's flag is
  /// evaluated where it is needed, so classifying allocates nothing.
  FlowProblem classify(const NetworkView& view, graph::NodeId src,
                       graph::NodeId dst) const;

 private:
  /// True if directed edge `e` is problematic under the view.
  bool edgeProblem(const NetworkView& view, graph::EdgeId e) const;

  const graph::Graph* graph_;
  DetectorParams params_;
  std::vector<util::SimTime> baseLatency_;
};

}  // namespace dg::routing
