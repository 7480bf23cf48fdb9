// Plain-text report rendering for the experiment binaries: fixed-width
// tables in the shape of the paper's evaluation artifacts.
#pragma once

#include <string>
#include <vector>

#include "playback/classification.hpp"
#include "playback/experiment.hpp"
#include "trace/topology.hpp"
#include "util/sim_time.hpp"

namespace dg::playback {

/// The headline table (E3): one row per scheme with unavailability,
/// unavailable seconds, problematic intervals, gap coverage and cost,
/// titled with the length of the trace it scored.
std::string renderSummaryTable(const ExperimentResult& result,
                               util::SimTime traceDuration,
                               std::size_t flowCount);

/// Per-flow unavailability matrix (rows: flows, columns: schemes).
std::string renderPerFlowTable(const ExperimentResult& result,
                               const ExperimentConfig& config,
                               const trace::Topology& topology);

/// Cost table (E7): per-scheme average cost, absolute and relative to the
/// static two-disjoint-path scheme.
std::string renderCostTable(const ExperimentResult& result);

/// CDF of per-flow unavailability per scheme (E5): one line per flow
/// quantile per scheme, columns "scheme unavailability cumulative_frac".
std::string renderUnavailabilityCdf(const ExperimentResult& result,
                                    const ExperimentConfig& config);

/// Problem-location classification (E4).
std::string renderClassification(const ProblemClassification& counts);

}  // namespace dg::playback
