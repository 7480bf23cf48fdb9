// Experiment runner: the full flows x schemes sweep over one trace, with
// gap-coverage aggregation (experiment E3 / the paper's headline table).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
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
  /// Ignored when PlaybackParams::decisionMemo is off.
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
  /// Decision-memo traffic of this run (hit rates; packed runner only).
  routing::DecisionMemo::Stats memoStats;
  /// Per-stage wall-clock totals summed over all workers (populated when
  /// PlaybackParams::collectStageTimings is set; see StageTimings).
  struct StageBreakdown {
    std::uint64_t decodeNs = 0;
    std::uint64_t mcNs = 0;
    std::uint64_t memoNs = 0;
    std::uint64_t mergeNs = 0;
  };
  StageBreakdown stages;

  const FlowSchemeResult& at(std::size_t flowIndex,
                             std::size_t schemeIndex,
                             std::size_t schemeCount) const {
    return perFlow[flowIndex * schemeCount + schemeIndex];
  }
};

/// The decision contexts of a packed sweep whose tasks start mid-trace,
/// each with the ascending task starts to checkpoint. Phase 1 of the
/// packed runners replays every context once (DecisionReplay::run) and
/// phase-2 tasks restore their start state from here, so a context shared
/// by several tasks -- the chunks of one job, or groups with a common
/// source-receiver pair -- is replayed once per sweep instead of once per
/// task. Checkpoints are pure functions of (context, stop), so results do
/// not depend on which worker replays which context.
class ReplayPlan {
 public:
  struct Context {
    routing::SchemeKind kind{};
    routing::Flow flow;
    routing::SchemeParams params;
    std::vector<std::size_t> stops;
    std::vector<routing::DecisionCheckpoint> checkpoints;
  };

  /// The index of context (kind, flow, params), added on first sight.
  /// Contexts are identified by memo.contextKey, which interns exactly.
  std::size_t context(routing::DecisionMemo& memo, routing::SchemeKind kind,
                      routing::Flow flow, const routing::SchemeParams& params);
  /// Notes a task of `context` that starts at first > 0.
  void addStop(std::size_t context, std::size_t first) {
    contexts_[context].stops.push_back(first);
  }
  /// Sorts and dedupes every context's stops and drops the contexts no
  /// task starts mid-trace in (their indices stay valid). Call once,
  /// after the last addStop().
  void seal();

  /// Contexts with at least one stop after seal().
  std::size_t replayCount() const { return replayed_.size(); }
  /// The i-th context to replay (phase 1 fills its checkpoints).
  Context& replayContext(std::size_t i) { return contexts_[replayed_[i]]; }
  std::size_t checkpointCount() const;

  /// The checkpoint of `context` at `first`, which must have been added.
  const routing::DecisionCheckpoint& at(std::size_t context,
                                        std::size_t first) const;

 private:
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<Context> contexts_;
  std::vector<std::size_t> replayed_;
};

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
/// a sweep saturates cores even with a single flow/scheme. Each worker
/// thread opens its own PackedTraceReader and feeds its cursors from
/// private PackedConditionSources (decode state is never shared). One
/// worker pool runs in two phases: phase 1 replays each distinct decision
/// context once over the in-memory trace, checkpointing its state at every
/// task start (ReplayPlan); after a barrier, phase 2 runs the chunk tasks,
/// each restoring its checkpoint instead of re-running warm-up.
/// PlaybackParams::conditionCursor is forced on and
/// accumBlockIntervals is forced to the container's chunk length, so the
/// per-job fold of chunk partials (done in ascending chunk order)
/// reproduces the single-threaded blocked run bit for bit at any thread
/// count. Telemetry follows the runExperiment discipline: per-task
/// private instruments, merged sequentially in task order -- metric
/// exports are byte-identical for any `threads` (chunk boundaries reset
/// trace-event dedup, so *event* streams differ from the unchunked
/// runner's, deterministically).
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
