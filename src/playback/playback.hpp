// The playback engine: replays a recorded (or synthetic) condition trace
// for one unit -- a receiver group, or a unicast flow as its one-receiver
// case -- under one routing scheme, and computes, per 10-second interval,
// the probability that a packet sent in that interval arrives within the
// deadline, plus the scheme's cost in transmissions per packet.
//
// This mirrors the paper's Playback Network Simulator methodology: all
// schemes replay the *identical* condition stream; adaptive schemes see
// conditions with a configurable staleness (default one interval, since
// loss statistics cannot be acted upon before they are collected).
//
// A unicast flow is scored as the group {source; destination} under the
// group scheme whose unicastEquivalent() is the flow's scheme. The two
// are the same computation: a one-receiver group scheme makes the unicast
// scheme's decisions, the group evaluators reduce to the unicast ones,
// and the per-interval Monte-Carlo stream of a one-receiver group is the
// unicast stream. The flow-shaped entry points below only choose the
// telemetry names and the result record.
//
// Healthy intervals (the overwhelming majority) take an exact fast path;
// intervals where any member link of the current dissemination graph is
// lossy are evaluated by Monte-Carlo over the per-hop outcome model.
//
// Hot-path architecture (see DESIGN.md, "Playback performance
// architecture"): replay is driven by trace::ConditionTimeline cursors
// (O(changes) per interval, zero allocation) handing out fingerprinted
// borrowed NetworkViews; routing decisions are memoized across jobs in an
// engine-owned, exact-keyed, internally synchronized memo. Monte-Carlo
// evaluations are never memoized across intervals -- each interval draws
// from its own deterministic RNG stream -- so results are bit-identical
// with the cursor on or off.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "mcast/group.hpp"
#include "mcast/scheme.hpp"
#include "playback/delivery_model.hpp"
#include "routing/decision_memo.hpp"
#include "routing/scheme.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace dg::playback {

struct PlaybackParams {
  DeliveryModelParams delivery;
  /// Monte-Carlo samples per lossy interval.
  int mcSamples = 1000;
  /// Member-link loss rate above which an interval needs Monte-Carlo.
  double lossEpsilon = 1e-3;
  /// How stale the view driving adaptive decisions is, in intervals.
  /// 0 = oracle (decisions see current conditions), 1 = realistic.
  int viewStaleness = 1;
  /// An interval is counted as "problematic" for a unit/scheme when its
  /// miss probability exceeds this.
  double problematicThreshold = 1e-3;
  /// Seed driving all Monte-Carlo sampling (per-interval streams are
  /// derived deterministically, so results are independent of run order).
  std::uint64_t seed = 7;
  /// When set, FlowSchemeResult::intervalLatenciesUs records the selected
  /// graph's earliest-arrival latency for every interval where delivery
  /// is possible (for latency-distribution figures).
  bool collectIntervalLatencies = false;
  /// Drive replay with the condition-timeline cursor and fingerprinted
  /// views (off = per-interval vector materialization; results are
  /// bit-identical either way).
  bool conditionCursor = true;
  /// Accumulation block length in intervals. 0 (default) accumulates the
  /// whole range into one block -- the historical behavior. When set,
  /// per-interval statistics are folded into per-block partials at
  /// absolute interval boundaries (t % block == 0) and the blocks are
  /// merged in order, and the run-local clean-interval reuse cache is
  /// reset at each boundary. This fixes the floating-point merge tree, so
  /// a chunk-parallel sweep whose chunks coincide with the blocks
  /// produces bit-identical results at any thread count -- and identical
  /// to a single-threaded run with the same block length. (Results with
  /// block B differ from block 0 in the last float bits; both are valid.)
  std::size_t accumBlockIntervals = 0;
  /// Accumulate per-stage wall-clock nanoseconds (decode / Monte-Carlo /
  /// memo / merge) into PlaybackEngine::stageTimings(). Adds two clock
  /// reads around each non-trivial operation; leave off outside
  /// benchmarks.
  bool collectStageTimings = false;
};

struct GroupPlaybackParams {
  PlaybackParams base;
  /// Delivered-to-k accounting: an interval's group miss (the "K" line)
  /// is the probability that fewer than k receivers get the packet on
  /// time. 0 (default) means k = receiver count, i.e. delivered-to-all.
  std::size_t deliveredK = 0;
};

/// One problematic interval of a unit/scheme run (sparse record).
struct ProblematicInterval {
  std::size_t interval = 0;
  double missProbability = 0.0;
};

struct FlowSchemeResult {
  routing::Flow flow;
  routing::SchemeKind scheme{};

  /// Packet-weighted mean miss probability over the whole trace.
  double unavailability = 0.0;
  /// Sum over intervals of missProbability * interval length, in seconds:
  /// the expected total unavailable time ("unavailable seconds").
  double unavailableSeconds = 0.0;
  /// Number of intervals with miss probability > problematicThreshold.
  std::size_t problematicIntervals = 0;
  /// Mean transmissions per packet (the paper's cost metric).
  double averageCost = 0.0;
  /// Mean on-time one-way latency proxy: earliest-arrival latency of the
  /// selected graph under current conditions, averaged over intervals
  /// where delivery is possible, in microseconds.
  double averageLatencyUs = 0.0;

  /// Sparse list of the problematic intervals (for classification and
  /// case-study plots).
  std::vector<ProblematicInterval> problems;
  /// Dense per-interval delivery latency (microseconds; only intervals
  /// where delivery is possible). Populated only when
  /// PlaybackParams::collectIntervalLatencies is set.
  std::vector<double> intervalLatenciesUs;
};

/// Per-receiver slice of a group run (FlowStats-style).
struct GroupReceiverResult {
  graph::NodeId receiver = graph::kInvalidNode;
  util::SimTime deadline = 0;
  double unavailability = 0.0;
  double unavailableSeconds = 0.0;
  std::size_t problematicIntervals = 0;
  double averageLatencyUs = 0.0;
};

struct GroupSchemeResult {
  mcast::Group group;
  mcast::GroupSchemeKind scheme{};

  /// Packet-weighted mean P(some receiver misses) -- delivered-to-all.
  double unavailabilityAll = 0.0;
  /// Packet-weighted mean P(fewer than k receivers on time).
  double unavailabilityK = 0.0;
  /// Expected seconds in which not every receiver is served.
  double unavailableAllSeconds = 0.0;
  /// Intervals whose delivered-to-all miss exceeds the threshold.
  std::size_t problematicIntervals = 0;
  /// Mean transmissions per packet on the group graph.
  double averageCost = 0.0;

  std::vector<GroupReceiverResult> receivers;
  std::vector<ProblematicInterval> problems;
};

/// Partial accumulation of one contiguous interval range of a (unit,
/// scheme) run. Chunk-parallel sweeps compute one RunPartial per chunk
/// and fold them in chunk order; merging partials of adjacent ranges in
/// ascending order reproduces the single-threaded blocked accumulation
/// bit for bit (see PlaybackParams::accumBlockIntervals).
struct RunPartial {
  std::vector<util::WeightedMean> receiverMiss;
  std::vector<util::OnlineStats> receiverLatency;
  std::vector<double> receiverUnavailableSeconds;
  std::vector<std::size_t> receiverProblematic;
  util::WeightedMean missAllMean;
  util::WeightedMean missKMean;
  util::OnlineStats costStats;
  double unavailableAllSeconds = 0.0;
  std::size_t problematicIntervals = 0;
  std::vector<ProblematicInterval> problems;
  /// Receiver 0's per-interval latency, when
  /// PlaybackParams::collectIntervalLatencies is set.
  std::vector<double> intervalLatenciesUs;
  /// Monte-Carlo verdict work of the range. Not a result: merges add it,
  /// finalizePartial ignores it.
  DeliveryWork deliveryWork;

  /// Sizes the per-receiver accumulators (idempotent).
  void resize(std::size_t receiverCount);
  /// Folds a partial covering the range immediately *after* this one.
  void merge(RunPartial&& later);
};

/// Cumulative wall-clock nanoseconds per replay stage, summed across all
/// runs on one engine (workers add their local tallies once per range,
/// relaxed). Collected only when PlaybackParams::collectStageTimings is
/// set. "decode" is condition access (cursor seeks, span fetches, vector
/// materialization), "mc" is Monte-Carlo evaluation, "eval" is the exact
/// near-lossless evaluation (per-receiver misses plus the delivered-to-k
/// tail), "memo" is routing decisions only -- decision replays and
/// scoring selects -- and "merge" is block folds and partial merges.
struct StageTimings {
  std::atomic<std::uint64_t> decodeNs{0};
  std::atomic<std::uint64_t> mcNs{0};
  std::atomic<std::uint64_t> evalNs{0};
  std::atomic<std::uint64_t> memoNs{0};
  std::atomic<std::uint64_t> mergeNs{0};
};

/// Rolls routing-decision state forward to a list of stops, exactly as a
/// full run's decisions from interval 0 would: the view lags by the
/// staleness, and decisions before any deviation is visible use the
/// baseline view. It is the only code that rolls scheme state over a
/// prefix; the engine and the sweep runner start mid-trace tasks from its
/// checkpoints. Views come from the in-memory trace, so no packed chunk
/// is decoded, and no telemetry is attached, so skipped selects are
/// unobservable.
///
/// Each stop is replayed from the context's last history-free decision
/// before it, not from interval 0 (DESIGN.md, "One bounded decision
/// replay per context"):
///  - Cached-graph kinds (single path, two disjoint paths): a select on
///    the fingerprinted baseline view leaves the state initialize() left,
///    so the walk restarts at the last baseline decision before the stop.
///    A context whose baseline has no timely route keeps the graph it had
///    there and walks from interval 0.
///  - Targeted redundancy: the hold-down counters depend only on the last
///    holdDownIntervals decisions, and the middle-problem fallback on
///    the last middle-only decisions back to the last re-plan that found
///    a route. Both are recovered by classifying decision views backwards
///    from the stop -- bounded below by the previous stop, whose
///    checkpoint is known -- and re-planning only where the state needs
///    it. A context whose baseline view itself classifies as a problem
///    walks from interval 0.
/// Forward walks jump clean steady spans in O(log deviations) via the
/// schemes' steadyOnBaseline() fixed-point contract.
///
/// Group schemes restore each receiver's sub-scheme from the checkpoint
/// of its unicast context. A group run makes extra select() calls on
/// sub-schemes that are steady on baseline (while another receiver is
/// not); the steadyOnBaseline() contract makes those calls no-ops, so the
/// per-receiver replay reaches the state the group would.
class DecisionReplay {
 public:
  DecisionReplay(const graph::Graph& overlay, const trace::Trace& trace,
                 const trace::ConditionIndex& index, std::size_t staleness);

  /// Replays the context (kind, flow, params) up to stops.back() and
  /// returns one checkpoint per stop, in order: the scheme's state when
  /// interval `stop` is about to be decided, and the selection in force.
  /// `stops` must be ascending and > 0. `memo` (nullable) is attached
  /// under the context's key, as in a scoring run.
  std::vector<routing::DecisionCheckpoint> run(
      routing::SchemeKind kind, routing::Flow flow,
      const routing::SchemeParams& params, routing::DecisionMemo* memo,
      std::span<const std::size_t> stops) const;

  /// Work of every run() on this replay so far, summed. Each count is a
  /// pure function of the contexts and stops replayed, so a sweep's
  /// totals do not depend on its thread count.
  struct Work {
    /// select() calls.
    std::uint64_t decisions = 0;
    /// Decision intervals covered: for each stop, from the earliest
    /// decision whose view the replay read (or walked from) to the stop.
    std::uint64_t intervals = 0;
  };
  Work work() const;

 private:
  /// Smallest interval t >= fromInterval whose *decision* view (t -
  /// staleness) carries a deviation; trace end if none.
  std::size_t nextDeviatingDecision(std::size_t fromInterval) const;
  /// Largest interval t < stop decided on the baseline view, or
  /// kNoDecision if every decision before `stop` sees a deviation.
  std::size_t lastBaselineDecision(std::size_t stop) const;
  static constexpr std::size_t kNoDecision = static_cast<std::size_t>(-1);

  const graph::Graph* overlay_;
  const trace::Trace* trace_;
  const trace::ConditionIndex* index_;
  std::size_t staleness_;
  /// Sorted intervals that deviate from baseline (steady-span jumps,
  /// restart points and the targeted backward scan).
  std::vector<std::size_t> deviatingIntervals_;
  mutable std::atomic<std::uint64_t> decisions_{0};
  mutable std::atomic<std::uint64_t> intervals_{0};
};

class PlaybackEngine {
 public:
  /// `deliveredK` is the group runs' delivered-to-k bar (see
  /// GroupPlaybackParams).
  PlaybackEngine(const graph::Graph& overlay, const trace::Trace& trace,
                 PlaybackParams params, std::size_t deliveredK = 0);

  // --- Flow entry points: a flow is the one-receiver group under the
  // group kind whose unicastEquivalent() is `kind`. Telemetry is labeled
  // {flow="src->dst", scheme=schemeName(kind)} and named dg_playback_*.

  /// Replays the whole trace for one flow under one scheme. `telemetry`
  /// (nullable) collects per-interval counters and histograms,
  /// classification counts from the scheme, and GraphSwitch trace events;
  /// `telemetry->now` tracks the sim-time start of the interval being
  /// replayed.
  FlowSchemeResult run(routing::Flow flow, routing::SchemeKind kind,
                       const routing::SchemeParams& schemeParams,
                       telemetry::Telemetry* telemetry = nullptr) const;

  /// Replays an interval range [first, last), the scheme starting fresh
  /// at `first` -- used by the case-study experiment and by tests.
  FlowSchemeResult runRange(routing::Flow flow, routing::SchemeKind kind,
                            const routing::SchemeParams& schemeParams,
                            std::size_t first, std::size_t last,
                            telemetry::Telemetry* telemetry = nullptr) const;

  /// Per-interval miss probabilities over a range (dense; for timelines).
  /// Every interval is evaluated fresh (no run-local reuse), so
  /// Monte-Carlo intervals reflect their own per-interval RNG streams.
  std::vector<double> missTimeline(routing::Flow flow,
                                   routing::SchemeKind kind,
                                   const routing::SchemeParams& schemeParams,
                                   std::size_t first, std::size_t last) const;

  /// Chunk-parallel building block: replays [first, last) and returns the
  /// partial accumulation, starting from `start` -- the checkpoint at
  /// `first` of this (kind, flow, params) context from replayCheckpoints,
  /// null when first == 0 (static kinds carry no decision state and may
  /// pass null anywhere). `decisionSource` and `truthSource` (nullable ->
  /// replay from the in-memory trace) let each worker cursor over its own
  /// PackedConditionSource so no decode state is shared across threads.
  /// Requires conditionCursor mode when a source is given.
  ///
  /// With params().accumBlockIntervals == B > 0 and chunks aligned to B,
  /// merging the partials of a run's chunks in ascending order yields the
  /// same bits as runRange over the union -- at any thread count.
  /// `telemetry` (nullable) collects this range's counters/events; chunk
  /// boundaries reset the per-run "last classification" trace-event
  /// dedup, so chunked trace *event* streams can differ from unchunked
  /// ones (counters and results do not).
  RunPartial runChunkPartial(routing::Flow flow, routing::SchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             std::size_t first, std::size_t last,
                             const routing::DecisionCheckpoint* start,
                             trace::ConditionSource* decisionSource,
                             trace::ConditionSource* truthSource,
                             telemetry::Telemetry* telemetry) const;

  /// Single-task form: replays this context to {first} itself, then
  /// scores from that checkpoint.
  RunPartial runChunkPartial(routing::Flow flow, routing::SchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             std::size_t first, std::size_t last,
                             trace::ConditionSource* decisionSource,
                             trace::ConditionSource* truthSource,
                             telemetry::Telemetry* telemetry = nullptr) const;

  /// Converts a fully merged partial into the result record.
  FlowSchemeResult finalizePartial(routing::Flow flow,
                                   routing::SchemeKind kind,
                                   RunPartial&& total) const;

  // --- Group entry points. Telemetry is labeled {group="src->r1+r2",
  // scheme=groupSchemeName(kind)} and named dg_mcast_*.

  GroupSchemeResult run(const mcast::Group& group,
                        mcast::GroupSchemeKind kind,
                        const routing::SchemeParams& schemeParams,
                        telemetry::Telemetry* telemetry = nullptr) const;
  GroupSchemeResult runRange(const mcast::Group& group,
                             mcast::GroupSchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             std::size_t first, std::size_t last,
                             telemetry::Telemetry* telemetry = nullptr) const;

  /// The group form of runChunkPartial. `receiverStarts` holds each
  /// receiver's checkpoint at `first` from replayCheckpoints of its
  /// context -- (unicastEquivalent(kind), receiverFlow, receiver params)
  /// -- and is empty when first == 0 or the kind is static
  /// (!isAdaptive).
  RunPartial runChunkPartial(
      const mcast::Group& group, mcast::GroupSchemeKind kind,
      const routing::SchemeParams& schemeParams, std::size_t first,
      std::size_t last,
      std::span<const routing::DecisionCheckpoint* const> receiverStarts,
      trace::ConditionSource* decisionSource,
      trace::ConditionSource* truthSource,
      telemetry::Telemetry* telemetry) const;

  /// Single-task form: replays each receiver's context to {first} itself,
  /// then scores from those checkpoints.
  RunPartial runChunkPartial(const mcast::Group& group,
                             mcast::GroupSchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             std::size_t first, std::size_t last,
                             trace::ConditionSource* decisionSource,
                             trace::ConditionSource* truthSource,
                             telemetry::Telemetry* telemetry = nullptr) const;

  GroupSchemeResult finalizePartial(const mcast::Group& group,
                                    mcast::GroupSchemeKind kind,
                                    RunPartial&& total) const;

  /// The decision replay of one context over the engine's trace (see
  /// DecisionReplay::run), with the engine's decision memo attached.
  /// Groups that share a source-receiver pair share its checkpoints.
  /// Counted in StageTimings::memoNs when stage timings are on, and in
  /// replayWork().
  std::vector<routing::DecisionCheckpoint> replayCheckpoints(
      routing::SchemeKind kind, routing::Flow flow,
      const routing::SchemeParams& schemeParams,
      std::span<const std::size_t> stops) const;
  /// Work of every replayCheckpoints() call on this engine so far.
  DecisionReplay::Work replayWork() const { return replay_.work(); }

  const trace::Trace& trace() const { return *trace_; }
  const PlaybackParams& params() const { return params_; }

  /// The engine's cross-job decision memo (for hit-rate reporting).
  const routing::DecisionMemo& decisionMemo() const { return decisionMemo_; }
  /// Mutable handle for the persistent sidecar cache (memo_cache.*) and
  /// the sweep's replay plan: absorb a loaded snapshot before runs,
  /// snapshot after, intern contexts. Memoized decisions are pure
  /// functions of their keys, so pre-seeding cannot change results.
  routing::DecisionMemo& decisionMemoMutable() const { return decisionMemo_; }

  /// Per-stage wall-clock tallies (populated only when
  /// PlaybackParams::collectStageTimings is set).
  const StageTimings& stageTimings() const { return stageTimings_; }
  /// Lets drivers (the sweep's fold) account their own merge work in the
  /// same place.
  void addStageMergeNs(std::uint64_t ns) const {
    stageTimings_.mergeNs.fetch_add(ns, std::memory_order_relaxed);
  }

 private:
  /// The telemetry names of one unit form, chosen by the entry point.
  struct UnitNames;
  static const UnitNames kFlowNames;
  static const UnitNames kGroupNames;

  /// Everything one scoring pass needs; the entry points fill it in.
  struct ScoreSpec {
    const mcast::Group* group = nullptr;
    mcast::GroupSchemeKind kind{};
    const routing::SchemeParams* schemeParams = nullptr;
    const UnitNames* names = nullptr;
    std::string_view schemeLabel;
    std::size_t first = 0;
    std::size_t last = 0;
    /// Chunk tasks: the scheme's history starts at interval 0 -- it is
    /// restored at `first` from `starts` (each receiver's checkpoint;
    /// empty = fresh), and the selection in force at `first` counts as
    /// the previous one for GraphSwitch events. Otherwise (runRange,
    /// missTimeline) the scheme starts fresh at `first`.
    bool chunk = false;
    std::span<const routing::DecisionCheckpoint* const> starts;
    trace::ConditionSource* decisionSource = nullptr;
    trace::ConditionSource* truthSource = nullptr;
    telemetry::Telemetry* telemetry = nullptr;
    /// missTimeline: per-interval miss appended, every interval
    /// evaluated fresh.
    std::vector<double>* timelineOut = nullptr;
  };

  static ScoreSpec flowSpec(const mcast::Group& unit,
                            routing::SchemeKind kind,
                            const routing::SchemeParams& schemeParams,
                            std::size_t first, std::size_t last);
  static ScoreSpec groupSpec(const mcast::Group& group,
                             mcast::GroupSchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             std::size_t first, std::size_t last);

  /// The per-interval scoring loop (decision, truth conditions,
  /// evaluation, accumulation) over [spec.first, spec.last) -- the only
  /// one in the library.
  RunPartial score(const ScoreSpec& spec) const;

  const graph::Graph* overlay_;
  const trace::Trace* trace_;
  PlaybackParams params_;
  std::size_t deliveredK_;
  trace::ConditionIndex conditionIndex_;
  DecisionReplay replay_;
  mutable StageTimings stageTimings_;

  /// Cross-job decision memo. Mutable + internally synchronized: one
  /// const engine is shared across sweep worker threads, and every
  /// memoized decision is a pure function of its exact key, so results
  /// are independent of thread count and insertion order.
  mutable routing::DecisionMemo decisionMemo_;
};

}  // namespace dg::playback
