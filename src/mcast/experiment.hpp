// Group experiment runners: the groups x group-schemes sweep over one
// trace, run by the unicast runners' task scheduler (playback::runSweep)
// under the same determinism contract (byte-identical telemetry exports
// and bit-identical results at any thread count).
#pragma once

#include <string>
#include <vector>

#include "mcast/group.hpp"
#include "mcast/playback.hpp"
#include "mcast/scheme.hpp"
#include "playback/experiment.hpp"
#include "routing/scheme.hpp"

namespace dg::mcast {

/// Half-open interval range a group is active over; lastInterval values
/// beyond the trace end are clamped to it.
using GroupWindow = playback::FlowWindow;

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

  /// What the sweep reports besides its results, as for the unicast
  /// runners (see playback::SweepStats): decision-memo traffic, per-stage
  /// wall-clock totals (when PlaybackParams::collectStageTimings is set),
  /// phase-1 decision replay work and phase-2 Monte-Carlo verdict work.
  routing::DecisionMemo::Stats memoStats;
  playback::ExperimentResult::StageBreakdown stages;
  playback::DecisionReplay::Work replay;
  playback::DeliveryWork delivery;

  const GroupSchemeResult& at(std::size_t groupIndex,
                              std::size_t schemeIndex,
                              std::size_t schemeCount) const {
    return perGroup[groupIndex * schemeCount + schemeIndex];
  }
};

/// Runs every (group, scheme) pair over the trace; deterministic
/// regardless of thread count (see playback::runSweep).
GroupExperimentResult runGroupExperiment(
    const graph::Graph& overlay, const trace::Trace& trace,
    const GroupExperimentConfig& config,
    telemetry::Telemetry* telemetry = nullptr);

/// Chunk-parallel variant over a packed dgtrace file: the work unit is
/// (group, scheme, chunk), with the contract of
/// playback::runPackedExperiment. Groups that share a source-receiver
/// pair share one decision replay.
GroupExperimentResult runPackedGroupExperiment(
    const graph::Graph& overlay, const std::string& packedPath,
    const GroupExperimentConfig& config,
    telemetry::Telemetry* telemetry = nullptr);

}  // namespace dg::mcast
