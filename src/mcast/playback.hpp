// Group playback: replays a condition trace for one receiver set under
// one group scheme. Structure and replay semantics mirror
// playback::PlaybackEngine interval for interval -- same decision
// staleness, same warm-up replay, same steady fast path, same blocked
// accumulation contract -- with the evaluation generalized to N receiver
// deadlines per send: per-receiver miss/latency plus group-level
// delivered-to-all and delivered-to-k accounting.
//
// A single-receiver group is bit-identical to the unicast engine run of
// the scheme's unicastEquivalent() for every scheme pair (pinned by
// test): the per-(group, scheme, interval) RNG stream derivation reduces
// to the unicast one, and the group evaluators reduce to the unicast
// evaluators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mcast/group.hpp"
#include "mcast/scheme.hpp"
#include "playback/playback.hpp"
#include "routing/decision_memo.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace dg::mcast {

struct GroupPlaybackParams {
  playback::PlaybackParams base;
  /// Delivered-to-k accounting: an interval's group miss (the "K" line)
  /// is the probability that fewer than k receivers get the packet on
  /// time. 0 (default) means k = receiver count, i.e. delivered-to-all.
  std::size_t deliveredK = 0;
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
  Group group;
  GroupSchemeKind scheme{};

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
  std::vector<playback::ProblematicInterval> problems;
};

/// Partial accumulation of one contiguous interval range of a (group,
/// scheme) run; same merge contract as playback::RunPartial (adjacent
/// ranges folded in ascending order reproduce the single-threaded
/// blocked accumulation bit for bit).
struct GroupRunPartial {
  std::vector<util::WeightedMean> receiverMiss;
  std::vector<util::OnlineStats> receiverLatency;
  std::vector<double> receiverUnavailableSeconds;
  std::vector<std::size_t> receiverProblematic;
  util::WeightedMean missAllMean;
  util::WeightedMean missKMean;
  util::OnlineStats costStats;
  double unavailableAllSeconds = 0.0;
  std::size_t problematicIntervals = 0;
  std::vector<playback::ProblematicInterval> problems;

  /// Sizes the per-receiver accumulators (idempotent).
  void resize(std::size_t receiverCount);
  /// Folds a partial covering the range immediately *after* this one.
  void merge(GroupRunPartial&& later);
};

class GroupPlaybackEngine {
 public:
  GroupPlaybackEngine(const graph::Graph& overlay, const trace::Trace& trace,
                      GroupPlaybackParams params);

  /// Replays the whole trace for one group under one scheme. `telemetry`
  /// (nullable) collects per-interval counters and histograms labeled
  /// {group="src->r1+r2", scheme=...} plus GraphSwitch trace events.
  GroupSchemeResult run(const Group& group, GroupSchemeKind kind,
                        const routing::SchemeParams& schemeParams,
                        telemetry::Telemetry* telemetry = nullptr) const;

  /// Replays an interval range [first, last).
  GroupSchemeResult runRange(const Group& group, GroupSchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             std::size_t first, std::size_t last,
                             telemetry::Telemetry* telemetry = nullptr) const;

  /// Chunk-parallel building block, mirroring
  /// PlaybackEngine::runChunkPartial (warm-up replay over [0, first) with
  /// steady-span jumps, worker-private condition sources, GraphSwitch
  /// continuity). Requires conditionCursor mode.
  GroupRunPartial runChunkPartial(
      const Group& group, GroupSchemeKind kind,
      const routing::SchemeParams& schemeParams, std::size_t first,
      std::size_t last, trace::ConditionSource* decisionSource,
      trace::ConditionSource* truthSource,
      telemetry::Telemetry* telemetry = nullptr) const;

  /// Converts a fully merged partial into the result record.
  GroupSchemeResult finalizePartial(const Group& group, GroupSchemeKind kind,
                                    GroupRunPartial&& total) const;

  const trace::Trace& trace() const { return *trace_; }
  const GroupPlaybackParams& params() const { return params_; }
  const trace::ConditionIndex& conditionIndex() const {
    return conditionIndex_;
  }
  const routing::DecisionMemo& decisionMemo() const { return decisionMemo_; }

 private:
  /// One interval's group evaluation. Hoisted outside the scoring loop
  /// (the vectors keep their capacity across intervals).
  struct GroupIntervalEval {
    std::vector<double> miss;            ///< per receiver
    std::vector<util::SimTime> arrival;  ///< per receiver, kNever = none
    double missAll = 0.0;
    double missK = 0.0;
    double cost = 0.0;
    bool monteCarlo = false;
  };

  struct ScoreSpec {
    GroupScheme* scheme = nullptr;
    const routing::NetworkView* baselineView = nullptr;
    const Group* group = nullptr;
    GroupSchemeKind kind{};
    std::size_t first = 0;
    std::size_t last = 0;
    std::size_t warmupUntil = 0;
    trace::ConditionTimeline* decisionCursor = nullptr;
    trace::ConditionTimeline* truthCursor = nullptr;
    telemetry::Telemetry* telemetry = nullptr;
    bool reuseCleanEvals = true;
    std::vector<graph::EdgeId> lastSelectedEdges;
    bool haveSelected = false;
  };

  GroupSchemeResult runCore(const Group& group, GroupSchemeKind kind,
                            const routing::SchemeParams& schemeParams,
                            std::size_t first, std::size_t last,
                            telemetry::Telemetry* telemetry) const;

  GroupRunPartial scoreIntervals(ScoreSpec& spec) const;

  std::size_t nextDeviatingDecision(std::size_t fromInterval,
                                    std::size_t staleness) const;

  const graph::Graph* overlay_;
  const trace::Trace* trace_;
  GroupPlaybackParams params_;
  trace::ConditionIndex conditionIndex_;
  std::vector<std::size_t> deviatingIntervals_;

  /// Cross-job decision memo shared by the per-receiver sub-schemes
  /// (keyed by their unicast-equivalent contexts). Group runs do not
  /// carry the unicast engine's cross-interval deterministic-eval memo:
  /// group evaluations are pure functions either way, and the
  /// per-receiver result vectors make the exact-key bookkeeping a poor
  /// trade. Within one Monte-Carlo interval the group evaluator has the
  /// unicast one's machinery (batched classify, clean-path shortcut,
  /// per-outcome-pattern verdict memo), so an interval costs its draws
  /// plus one bounded Dijkstra per distinct outcome pattern that slows a
  /// clean earliest path -- not one per such sample.
  mutable routing::DecisionMemo decisionMemo_;
};

}  // namespace dg::mcast
