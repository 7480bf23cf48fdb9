// The pre-optimization delivery evaluators, frozen: per-call vector
// allocations, a per-sample std::priority_queue, no clean-sample
// shortcut. Do not "improve" these -- their entire value is being the
// unchanged oracle the optimized evaluators in playback/delivery_model
// are proven bit-identical against, draw for draw.
#pragma once

#include <span>

#include "graph/dissemination_graph.hpp"
#include "playback/delivery_model.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace dg::test {

double onTimeProbabilityMCReference(const graph::DisseminationGraph& dg,
                                    std::span<const double> lossRates,
                                    std::span<const util::SimTime> latencies,
                                    const playback::DeliveryModelParams& params,
                                    int samples, util::Rng& rng);
double missProbabilityNearLosslessReference(
    const graph::DisseminationGraph& dg, std::span<const double> lossRates,
    std::span<const util::SimTime> latencies,
    const playback::DeliveryModelParams& params);

}  // namespace dg::test
