// Group experiment runner: the groups x group-schemes sweep over one
// trace, mirroring the unicast experiment runner's determinism contract
// (byte-identical telemetry exports and bit-identical results at any
// thread count).
#pragma once

#include <string>
#include <vector>

#include "mcast/group.hpp"
#include "mcast/playback.hpp"
#include "mcast/scheme.hpp"
#include "routing/scheme.hpp"

namespace dg::mcast {

/// Half-open interval range a group is active over; lastInterval values
/// beyond the trace end are clamped to it.
struct GroupWindow {
  std::size_t firstInterval = 0;
  std::size_t lastInterval = static_cast<std::size_t>(-1);
};

struct GroupExperimentConfig {
  std::vector<Group> groups;
  /// Per-group active windows; empty = every group scores the whole
  /// trace, otherwise parallel to `groups` with non-empty windows.
  std::vector<GroupWindow> groupWindows;
  std::vector<GroupSchemeKind> schemes = allGroupSchemeKinds();
  routing::SchemeParams schemeParams;
  GroupPlaybackParams playback;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
};

struct GroupSchemeSummary {
  GroupSchemeKind scheme{};
  /// Mean delivered-to-all unavailability across groups (groups weighted
  /// equally).
  double unavailabilityAll = 0.0;
  /// Mean delivered-to-k unavailability across groups.
  double unavailabilityK = 0.0;
  /// Total expected not-fully-served seconds, summed across groups.
  double unavailableAllSeconds = 0.0;
  std::size_t problematicIntervals = 0;
  /// Mean transmissions per packet across groups.
  double averageCost = 0.0;
  /// Worst per-receiver unavailability seen under this scheme.
  double worstReceiverUnavailability = 0.0;
};

struct GroupExperimentResult {
  /// groups-major: perGroup[g * schemes.size() + s].
  std::vector<GroupSchemeResult> perGroup;
  std::vector<GroupSchemeSummary> summary;  ///< in config.schemes order

  const GroupSchemeResult& at(std::size_t groupIndex,
                              std::size_t schemeIndex,
                              std::size_t schemeCount) const {
    return perGroup[groupIndex * schemeCount + schemeIndex];
  }
};

/// Runs every (group, scheme) pair over the trace; deterministic
/// regardless of thread count (private per-job telemetry, sequential
/// job-order merge -- same discipline as playback::runExperiment).
GroupExperimentResult runGroupExperiment(
    const graph::Graph& overlay, const trace::Trace& trace,
    const GroupExperimentConfig& config,
    telemetry::Telemetry* telemetry = nullptr);

/// Chunk-parallel variant over a packed dgtrace file: the work unit is
/// (group, scheme, chunk); per-worker PackedTraceReader + private
/// condition sources, chunk-aligned accumulation blocks, ascending-chunk
/// fold -- bit-identical at any thread count, telemetry exports
/// byte-identical (same contract as playback::runPackedExperiment).
/// Phase 1 replays each receiver decision context (unicast equivalent,
/// source->receiver, receiver params) once, so groups that share a
/// source-receiver pair share one replay; phase-2 tasks of adaptive kinds
/// restore their receivers from its checkpoints.
GroupExperimentResult runPackedGroupExperiment(
    const graph::Graph& overlay, const std::string& packedPath,
    const GroupExperimentConfig& config,
    telemetry::Telemetry* telemetry = nullptr);

}  // namespace dg::mcast
