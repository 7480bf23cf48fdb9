// Experiment runners: the full units x schemes sweep over one trace --
// unicast flows here (with gap-coverage aggregation, experiment E3 / the
// paper's headline table), receiver groups in mcast/experiment.hpp -- all
// driven by one task scheduler, runSweep.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "playback/memo_cache.hpp"
#include "playback/playback.hpp"
#include "routing/scheme.hpp"
#include "trace/topology.hpp"

namespace dg::playback {

/// Half-open interval range a flow is active over. lastInterval values
/// beyond the trace end are clamped to it.
struct FlowWindow {
  std::size_t firstInterval = 0;
  std::size_t lastInterval = static_cast<std::size_t>(-1);
};

struct ExperimentConfig {
  std::vector<routing::Flow> flows;
  /// Per-flow active windows for open-loop fleet workloads. Empty =
  /// every flow scores the whole trace (the historical behavior).
  /// Otherwise must parallel `flows` with a non-empty clamped window per
  /// flow. Windowed jobs start from a decision replay over the pre-window
  /// history exactly like the packed runner's mid-trace tasks, so the two
  /// runners agree bit for bit when their accumulation block lengths
  /// match.
  std::vector<FlowWindow> flowWindows;
  std::vector<routing::SchemeKind> schemes = routing::allSchemeKinds();
  routing::SchemeParams schemeParams;
  PlaybackParams playback;
  /// The "traditional" end of the gap (abstract: single-path approach).
  routing::SchemeKind gapBaseline = routing::SchemeKind::StaticSinglePath;
  /// The optimal-but-expensive end of the gap.
  routing::SchemeKind gapOptimal =
      routing::SchemeKind::TimeConstrainedFlooding;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Packed runner only: when non-empty, the persistent decision-memo
  /// sidecar at this path is loaded (and validated against the trace's
  /// content fingerprint) before the sweep and rewritten afterwards.
  std::string memoCachePath;
};

struct SchemeSummary {
  routing::SchemeKind scheme{};
  /// Mean unavailability across flows (flows weighted equally).
  double unavailability = 0.0;
  /// Total expected unavailable seconds, summed across flows.
  double unavailableSeconds = 0.0;
  std::size_t problematicIntervals = 0;
  /// Mean transmissions per packet across flows.
  double averageCost = 0.0;
  /// Fraction of the baseline->optimal unavailability gap this scheme
  /// covers: (unavail(baseline) - unavail(scheme)) /
  ///         (unavail(baseline) - unavail(optimal)).
  double gapCoverage = 0.0;
  /// Cost relative to the static two-disjoint-paths scheme.
  double costVsTwoDisjoint = 0.0;
};

struct ExperimentResult {
  /// flows-major: perFlow[f * schemes.size() + s].
  std::vector<FlowSchemeResult> perFlow;
  std::vector<SchemeSummary> summary;  ///< in config.schemes order

  /// Packed runner, when ExperimentConfig::memoCachePath was set: what
  /// happened to the sidecar on load (kMissing also when no path given).
  MemoCacheLoadResult memoCacheLoad = MemoCacheLoadResult::kMissing;
  /// Decision-memo traffic of this run (hit rates).
  routing::DecisionMemo::Stats memoStats;
  /// Per-stage wall-clock totals summed over all workers (populated when
  /// PlaybackParams::collectStageTimings is set; see StageTimings).
  struct StageBreakdown {
    std::uint64_t decodeNs = 0;
    std::uint64_t mcNs = 0;
    /// Near-lossless (exact) evaluation.
    std::uint64_t evalNs = 0;
    /// Routing decisions: the phase-1 decision replays.
    std::uint64_t memoNs = 0;
    std::uint64_t mergeNs = 0;
  };
  StageBreakdown stages;
  /// Phase-1 decision replay work and phase-2 Monte-Carlo verdict work
  /// (see SweepStats); both are independent of the thread count.
  DecisionReplay::Work replay;
  DeliveryWork delivery;

  const FlowSchemeResult& at(std::size_t flowIndex,
                             std::size_t schemeIndex,
                             std::size_t schemeCount) const {
    return perFlow[flowIndex * schemeCount + schemeIndex];
  }
};

/// One sweep for the scheduler: every (unit, scheme) job, job index
/// unit * schemes.size() + scheme. A unicast sweep passes its flows as
/// one-receiver groups and its schemes as their group equivalents, with
/// `flowUnits` set: tasks then score through the engine's flow entry
/// points and the runner-level metrics are dg_playback_jobs_total and
/// dg_playback_job_unavailable_seconds (dg_mcast_* for groups).
struct SweepSpec {
  std::span<const mcast::Group> units;
  std::span<const mcast::GroupSchemeKind> schemes;
  routing::SchemeParams schemeParams;
  /// Per-unit active windows; empty = every unit scores the whole
  /// trace, otherwise parallel to `units` with non-empty clamped windows.
  std::span<const FlowWindow> windows;
  GroupPlaybackParams playback;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  bool flowUnits = false;
  /// Packed sweeps only: the decision-memo sidecar (see
  /// ExperimentConfig::memoCachePath).
  std::string memoCachePath;
};

/// What a sweep reports besides its per-job partials.
struct SweepStats {
  MemoCacheLoadResult memoCacheLoad = MemoCacheLoadResult::kMissing;
  routing::DecisionMemo::Stats memoStats;
  ExperimentResult::StageBreakdown stages;
  /// Phase-1 work: select() calls made while replaying contexts, and the
  /// decision intervals those replays covered. Independent of the thread
  /// count.
  DecisionReplay::Work replay;
  /// Phase-2 Monte-Carlo verdict work, summed over every task: verdict
  /// Dijkstra runs and inferred verdicts. Independent of the thread count,
  /// and equal for the packed runner and the in-memory runner blocked at
  /// the container's chunk length.
  DeliveryWork delivery;
};

/// The one task scheduler behind every runner. The work unit is a (unit,
/// scheme, chunk) task. With `packedPath` empty the sweep replays the
/// in-memory `trace`, one task per job over its window (chunk boundaries
/// would reset the per-run classification-event dedup and change the
/// trace export). Otherwise it decodes the packed dgtrace file once
/// (PackedTraceReader::readAll, which CRC-checks every chunk) and splits
/// every job at the container's chunks; PlaybackParams::conditionCursor is
/// forced on, accumBlockIntervals is forced to the chunk length, and the
/// decision-memo sidecar applies.
///
/// One worker pool runs in two phases. Phase 1 decides: it replays each
/// distinct decision context -- (unicast equivalent, source->receiver,
/// receiver params) for every receiver of an adaptive job -- once over
/// the windows its jobs score, into a DecisionTimeline (each window
/// started from the context's last history-free decision, see
/// DecisionReplay), and freezes each static job's graph. The sweep owns
/// its decision memo (absorbing and saving the sidecar when one is set),
/// and each context's table belongs to the worker replaying it, so the
/// memo takes no lock: the dynamic-two-disjoint contexts are replayed first,
/// and after a barrier the targeted contexts of the same flows read their
/// tables. After a second barrier, phase 2 scores the tasks from the
/// timelines -- no scheme, no memo lookup -- with one private Telemetry
/// per task. Each job's partials are then folded in ascending chunk order
/// -- the same merge tree as a single-threaded blocked run -- and handed
/// to `finish` in job order, and the task telemetry is merged into
/// `telemetry` in task order. Results, every export and the memo counts
/// are therefore identical at any thread count.
SweepStats runSweep(
    const graph::Graph& overlay, const trace::Trace* trace,
    const std::string& packedPath, const SweepSpec& spec,
    telemetry::Telemetry* telemetry,
    const std::function<void(const PlaybackEngine& engine, std::size_t job,
                             RunPartial&& total)>& finish);

/// Runs every (flow, scheme) pair of the config over the trace;
/// deterministic regardless of thread count. When `telemetry` is given,
/// each worker job records into its own private Telemetry and the
/// per-job objects are folded into `telemetry` sequentially in job-index
/// order after the join -- so the merged metrics and trace log (and
/// therefore every export format) are byte-identical for any `threads`
/// setting.
ExperimentResult runExperiment(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               const ExperimentConfig& config,
                               telemetry::Telemetry* telemetry = nullptr);

/// Chunk-parallel variant of runExperiment over a packed dgtrace file:
/// the work unit is (flow, scheme, chunk) rather than (flow, scheme), so
/// a sweep saturates cores even with a single flow/scheme (see runSweep).
/// The per-job fold of chunk partials reproduces the single-threaded
/// blocked run bit for bit at any thread count, and metric exports are
/// byte-identical for any `threads` (chunk boundaries reset trace-event
/// dedup, so *event* streams differ from the unchunked runner's,
/// deterministically).
///
/// When config.memoCachePath is non-empty, the decision-memo sidecar is
/// loaded (validated against the trace's content fingerprint; a bad file
/// just means a cold start) before the sweep and rewritten afterwards.
ExperimentResult runPackedExperiment(const graph::Graph& overlay,
                                     const std::string& packedPath,
                                     const ExperimentConfig& config,
                                     telemetry::Telemetry* telemetry = nullptr);

/// The default 16 transcontinental evaluation flows on the ltn12
/// topology: four east-coast sites paired with four western sites, both
/// directions.
std::vector<routing::Flow> transcontinentalFlows(
    const trace::Topology& topology);

}  // namespace dg::playback
