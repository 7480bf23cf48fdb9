// Plain-text report rendering for group (receiver-set) experiments:
// fixed-width tables matching the unicast report idiom, extended with
// delivered-to-all vs delivered-to-k and worst-receiver columns.
#pragma once

#include <string>

#include "mcast/experiment.hpp"
#include "trace/topology.hpp"
#include "util/sim_time.hpp"

namespace dg::mcast {

/// Headline table: one row per group scheme with delivered-to-all and
/// delivered-to-k unavailability, unavailable seconds, problematic
/// intervals, worst per-receiver unavailability and cost, titled with the
/// length of the trace it scored.
std::string renderGroupSummaryTable(const GroupExperimentResult& result,
                                    util::SimTime traceDuration,
                                    std::size_t groupCount);

/// Per-group matrix (rows: groups, columns: schemes), delivered-to-all
/// unavailability in ppm.
std::string renderPerGroupTable(const GroupExperimentResult& result,
                                const GroupExperimentConfig& config,
                                const trace::Topology& topology);

}  // namespace dg::mcast
