#include "reference_evaluators.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace dg::test {

double onTimeProbabilityMCReference(const graph::DisseminationGraph& dg,
                                    std::span<const double> lossRates,
                                    std::span<const util::SimTime> latencies,
                                    const playback::DeliveryModelParams& params,
                                    int samples, util::Rng& rng) {
  if (samples <= 0) return 0.0;
  const graph::Graph& overlay = dg.overlay();
  std::vector<util::SimTime> sampled(overlay.edgeCount(), util::kNever);
  std::vector<util::SimTime> dist(overlay.nodeCount());
  int delivered = 0;

  for (int s = 0; s < samples; ++s) {
    for (const graph::EdgeId e : dg.edges()) {
      sampled[e] =
          playback::sampleHopLatency(lossRates[e], latencies[e], params, rng);
    }
    std::fill(dist.begin(), dist.end(), util::kNever);
    using Entry = std::pair<util::SimTime, graph::NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    dist[dg.source()] = 0;
    queue.push({0, dg.source()});
    bool onTime = false;
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > dist[u]) continue;
      if (u == dg.destination()) {
        onTime = d <= params.deadline;
        break;
      }
      if (d > params.deadline) break;
      for (const graph::EdgeId e : dg.outEdges(u)) {
        if (sampled[e] == util::kNever) continue;
        const graph::NodeId v = overlay.edge(e).to;
        const util::SimTime nd = d + sampled[e];
        if (nd < dist[v]) {
          dist[v] = nd;
          queue.push({nd, v});
        }
      }
    }
    if (onTime) ++delivered;
  }
  return static_cast<double>(delivered) / static_cast<double>(samples);
}

double missProbabilityNearLosslessReference(
    const graph::DisseminationGraph& dg, std::span<const double> lossRates,
    std::span<const util::SimTime> latencies,
    const playback::DeliveryModelParams& params) {
  const graph::Graph& overlay = dg.overlay();
  std::vector<util::SimTime> dist(overlay.nodeCount(), util::kNever);
  std::vector<graph::EdgeId> via(overlay.nodeCount(), graph::kInvalidEdge);
  using Entry = std::pair<util::SimTime, graph::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[dg.source()] = 0;
  queue.push({0, dg.source()});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    for (const graph::EdgeId e : dg.outEdges(u)) {
      const util::SimTime w = latencies[e];
      if (w == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      if (d + w < dist[v]) {
        dist[v] = d + w;
        via[v] = e;
        queue.push({d + w, v});
      }
    }
  }
  const util::SimTime at = dist[dg.destination()];
  if (at == util::kNever || at > params.deadline) return 1.0;

  double residual = 0.0;
  for (graph::NodeId n = dg.destination(); n != dg.source();) {
    const graph::EdgeId e = via[n];
    const double p = lossRates[e];
    residual += params.recoveryEnabled ? p * p : p;
    n = overlay.edge(e).from;
  }
  return std::min(residual, 1.0);
}

}  // namespace dg::test
