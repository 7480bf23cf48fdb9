// Budgeted dissemination-graph optimization.
//
// The dissemination-graph framework admits *arbitrary* subgraphs, but the
// paper deliberately ships precomputed targeted graphs because optimizing
// a graph per flow per condition snapshot is expensive. This module
// explores that design space (the paper's natural extension): given the
// current per-link conditions and an edge budget, greedily assemble the
// dissemination graph that maximizes on-time delivery probability.
//
// Method: candidate deadline-feasible paths (Yen's k shortest, plus the
// best path through each source/destination link) are merged greedily by
// marginal Monte-Carlo gain under common random numbers, until the budget
// is exhausted or gains vanish. This is a heuristic -- maximizing
// delivery probability over subgraphs is NP-hard in general -- but on
// 12-node overlays it closely tracks exhaustive search and provides an
// independent yardstick for how much of the optimization headroom the
// paper's precomputed targeted graphs already capture (see the
// E9 experiment of bench_reproduce).
#pragma once

#include <span>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "playback/delivery_model.hpp"
#include "routing/scheme.hpp"

namespace dg::playback {

struct OptimizerParams {
  DeliveryModelParams delivery;
  /// Maximum number of member edges of the result.
  int edgeBudget = 12;
  /// Monte-Carlo samples per candidate evaluation (common random numbers
  /// across candidates of one round keep comparisons low-variance).
  int mcSamples = 3000;
  /// Size of the Yen candidate-path pool.
  int candidatePaths = 12;
  /// Stop when the best remaining augmentation gains less than this.
  double minGain = 1e-4;
  std::uint64_t seed = 99;
};

struct OptimizedGraph {
  graph::DisseminationGraph graph;
  /// Monte-Carlo estimate of P(on-time delivery) for `graph`.
  double onTimeProbability = 0.0;
  /// Accepted augmentations, in order: (edges after, estimate after).
  std::vector<std::pair<std::size_t, double>> steps;
};

/// Optimizes a dissemination graph for `flow` under the given per-edge
/// conditions. Returns an empty graph (onTimeProbability 0) when no
/// deadline-feasible route exists at all.
OptimizedGraph optimizeDisseminationGraph(
    const graph::Graph& overlay, routing::Flow flow,
    std::span<const double> lossRates,
    std::span<const util::SimTime> latencies, const OptimizerParams& params);

}  // namespace dg::playback
