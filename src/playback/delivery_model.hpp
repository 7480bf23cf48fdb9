// Per-packet delivery semantics shared by the playback engine and
// (conceptually) the event-driven simulator.
//
// A packet is flooded on a dissemination graph. On each hop it is lost
// with the link's current loss probability; a lost transmission can be
// recovered at most once per hop by the real-time link protocol: the gap
// is noticed when the next packet arrives (one inter-packet interval),
// then a NACK crosses the link and the retransmission crosses it again,
// so a recovered hop costs 3*latency + packetInterval instead of latency.
// A packet counts as delivered iff some causal chain of successful (or
// once-recovered) transmissions reaches the destination within the
// deadline.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace dg::playback {

struct DeliveryModelParams {
  util::SimTime deadline = util::milliseconds(65);
  /// Inter-packet gap of the flow; bounds loss-detection delay.
  util::SimTime packetInterval = util::milliseconds(10);
  /// Master switch for the per-hop real-time recovery protocol.
  bool recoveryEnabled = true;
};

namespace detail {

/// Flat 4-ary min-heap over (time, node) entries, ordered by the full
/// pair. Because the order is total (up to exact duplicates, which are
/// interchangeable), the pop sequence equals sorted order and is
/// therefore identical to std::priority_queue's regardless of heap shape
/// -- Dijkstra results stay bit-for-bit unchanged. The 4-ary layout
/// trades slightly more sift-down comparisons for half the tree depth and
/// better cache locality, and the backing vector is reused across
/// samples/intervals without reallocating.
class DaryHeap {
 public:
  struct Entry {
    util::SimTime time;
    graph::NodeId node;
  };

  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  void push(util::SimTime time, graph::NodeId node);
  /// Removes and returns the minimum entry. Precondition: !empty().
  Entry popMin();

 private:
  static constexpr std::size_t kArity = 4;
  static bool less(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.node < b.node);
  }
  std::vector<Entry> entries_;
};

/// One distinct outcome pattern of a Monte-Carlo call and the number of
/// samples that drew it.
struct McPattern {
  std::uint64_t keyLo = 0;
  std::uint64_t keyHi = 0;
  std::uint32_t count = 0;
};

/// One decided pattern kept for monotone inference, thermometer-coded
/// (see DeliveryWorkspace::mcAbove) with the verdict it proves.
struct McBound {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t verdict = 0;
};

/// Per-Monte-Carlo-call tally of sampled outcome patterns, the keyed half
/// of count-then-decide. Within one call every member edge draws one of
/// three outcomes (on-time / recovered / lost), so a sample's effective
/// weight vector is fully described by 2 bits per member edge. Calls with
/// few lossy member edges see only a handful of distinct patterns; on
/// perfbench's sweeps, calls with seven or more averaged 120-200 across
/// 1000 samples, and a quarter of them saw over 390. The table maps each
/// pattern to its entry in a caller-owned list, so each distinct pattern
/// is decided once and scored with its sample count.
/// Epoch-tagged open addressing: beginEpoch() is O(1), lookups probe a
/// bounded window, and a pattern whose window is busy gets an extra entry
/// (callers merge duplicates).
class SampleOutcomeCache {
 public:
  /// Starts a new epoch, logically clearing all slots.
  void beginEpoch();

  /// Counts one sample of the pattern: bumps its entry in `patterns`, or
  /// appends one with count 1.
  void add(std::uint64_t keyLo, std::uint64_t keyHi,
           std::vector<McPattern>& patterns);

 private:
  struct Slot {
    std::uint64_t keyLo = 0;
    std::uint64_t keyHi = 0;
    std::uint32_t epoch = 0;
    std::uint32_t entry = 0;  ///< index into the caller's pattern list
  };
  static constexpr std::size_t kSlots = 4096;  // power of two
  static constexpr std::size_t kMaxProbes = 8;

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 0;
};

/// Monte-Carlo draw-kernel selection. Every kernel consumes the same
/// draws in the same order, so results and the final RNG state are
/// bit-identical across kernels:
///   - kFusedScalar draws and classifies each sample from the one serial
///     generator. It is the only path without AVX2, and it draws the
///     leftover samples of the lane kernels.
///   - kLanes4Avx2 and kLanes8Avx512 split the S samples into W = 4 or 8
///     lanes of q = S / W consecutive samples. Lane j starts from the
///     generator jumped j * q * memberCount draws ahead, all lanes draw and
///     classify in lock-step SIMD, and the S mod W leftover samples
///     continue serially from the last lane's end state -- exactly where
///     the serial stream stands.
/// kAuto picks the widest lane kernel the CPU runs, and the fused kernel
/// for calls of fewer than 512 draws or fewer samples than lanes; the
/// forced values let the equivalence suites pin every kernel of both the
/// unicast and the group evaluator against their frozen references.
enum class McKernel { kAuto, kFusedScalar, kLanes4Avx2, kLanes8Avx512 };

/// Jump-ahead polynomials of one lane split -- W lanes, lane j starting
/// j * stride draws into the stream -- transposed for the one-pass jump:
/// bit j of laneBits[i] is the x^i coefficient of x^(j * stride) mod P
/// (see util::Rng::jump).
struct McLaneJumps {
  std::uint64_t stride = 0;
  int lanes = 0;  ///< 0 until filled
  std::array<std::uint8_t, 256> laneBits = {};
};

/// Forces a kernel for testing (kAuto restores normal dispatch). Not
/// thread-safe; flip it only from single-threaded test setup.
void setMcKernelForTest(McKernel kernel);
/// True if this process can execute the given kernel.
bool mcKernelSupported(McKernel kernel);

}  // namespace detail

/// Verdict work of the Monte-Carlo evaluators: a pure function of the
/// calls made, independent of the kernel and the thread count.
struct DeliveryWork {
  /// Dijkstra runs made to decide a sample pattern's verdict (the clean
  /// run each call starts with is not counted).
  std::uint64_t dijkstraRuns = 0;
  /// Distinct patterns whose verdict followed from other verdicts by
  /// monotonicity, with no Dijkstra run.
  std::uint64_t inferredVerdicts = 0;

  DeliveryWork& operator+=(const DeliveryWork& other) {
    dijkstraRuns += other.dijkstraRuns;
    inferredVerdicts += other.inferredVerdicts;
    return *this;
  }
  bool operator==(const DeliveryWork&) const = default;
};

/// Caller-owned scratch memory for the delivery evaluators. One workspace
/// serves any number of calls (its arrays are sized on demand); reusing it
/// across the playback hot loop removes every per-call allocation. The
/// contents carry no state between calls -- results are identical whether
/// a workspace is reused, fresh, or (via the wrapper overloads) implicit.
/// Only `work` accumulates across calls.
struct DeliveryWorkspace {
  std::vector<util::SimTime> sampledHop;  ///< per-edge sampled hop latency
  std::vector<util::SimTime> dist;        ///< per-node tentative arrival
  std::vector<graph::EdgeId> via;         ///< per-node predecessor edge
  detail::DaryHeap heap;
  detail::SampleOutcomeCache outcomeCache;
  /// Per-member-edge sampling tables, rebuilt per Monte-Carlo call: the
  /// hop-outcome thresholds as exact 53-bit integers (see
  /// onTimeProbabilityMC for the u < thr equivalence proof) and the
  /// on-time / recovered hop latencies, laid out densely in
  /// dissemination-graph edge order.
  std::vector<std::uint64_t> mcThrOnTime;
  std::vector<std::uint64_t> mcThrRecovered;
  std::vector<util::SimTime> mcLatency;
  std::vector<util::SimTime> mcRecoveredLatency;
  /// Member index of each overlay edge of the current graph (valid for
  /// member edges only).
  std::vector<std::uint32_t> mcMemberOf;
  /// Per-sample 2-bit outcome-pattern keys of one keyed Monte-Carlo
  /// call, one slot per sample: lane j's t-th sample at t * W + j, the
  /// serially drawn samples at their sample index (the tally then moves
  /// the samples it counts in the keyed table to the front). The unkeyed
  /// fallback (more than 64 member edges) draws one sample at a time into
  /// mcDraws.
  std::vector<std::uint64_t> mcDraws;
  std::vector<std::uint64_t> mcKeyLo;
  std::vector<std::uint64_t> mcKeyHi;
  /// Lane jump polynomials, one cached split per member count.
  std::vector<detail::McLaneJumps> mcLaneJumps;

  /// Count-then-decide state of one keyed call: the dense per-pattern
  /// counts of calls with few lossy members (zero between calls) and the
  /// indices touched, then every distinct pattern with its count.
  std::vector<std::uint32_t> mcDenseCounts;
  std::vector<std::uint32_t> mcDenseTouched;
  std::vector<detail::McPattern> mcPatterns;
  /// Monotone inference over thermometer-coded patterns (code 0 -> 00,
  /// recovered 01 -> 01, lost 10 -> 11, so "no member worse than in Q"
  /// is one AND-NOT per word). mcAbove holds maximal patterns known to
  /// keep a verdict's receivers on time -- any pattern below one keeps
  /// them -- and mcBelow minimal evaluated patterns, whose verdicts bound
  /// every pattern above them.
  std::vector<detail::McBound> mcAbove;
  std::vector<detail::McBound> mcBelow;

  /// Clean-run scratch of both Monte-Carlo evaluators: per-receiver clean
  /// verdicts and the per-member-edge "lies on some clean-on-time
  /// receiver's earliest path" mark (the unicast evaluator is the
  /// one-receiver case).
  std::vector<char> mcCleanOnTime;
  std::vector<char> mcOnCleanPath;

  DeliveryWork work;

  /// Ensures the per-edge/per-node arrays cover `overlay`.
  void prepare(const graph::Graph& overlay);
};

/// Effective hop outcome distribution on a link with loss rate p and
/// latency `lat`:
///   on-time transit  w.p. (1-p)          after lat
///   recovered        w.p. p(1-p)         after 3*lat + packetInterval
///   lost             w.p. p^2
/// (without recovery: transit w.p. 1-p, lost w.p. p).
util::SimTime sampleHopLatency(double lossRate, util::SimTime latency,
                               const DeliveryModelParams& params,
                               util::Rng& rng);

/// Monte-Carlo estimate of P(packet delivered within deadline) when
/// flooded on `dg` under the given per-edge conditions. Scratch memory
/// comes from `workspace`; for a given rng state the result does not
/// depend on the workspace's prior contents.
double onTimeProbabilityMC(const graph::DisseminationGraph& dg,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           int samples, util::Rng& rng,
                           DeliveryWorkspace& workspace);

/// Convenience overload with a private throwaway workspace.
double onTimeProbabilityMC(const graph::DisseminationGraph& dg,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           int samples, util::Rng& rng);

/// Exact fast path valid when every member edge's loss rate is tiny
/// (<= lossEpsilon): delivery is then deterministic up to a residual miss
/// probability bounded by the sum of per-hop unrecoverable losses along
/// the best path. Returns the miss probability (0 area or 1 when even the
/// lossless earliest arrival exceeds the deadline).
double missProbabilityNearLossless(const graph::DisseminationGraph& dg,
                                   std::span<const double> lossRates,
                                   std::span<const util::SimTime> latencies,
                                   const DeliveryModelParams& params,
                                   DeliveryWorkspace& workspace);

/// Convenience overload with a private throwaway workspace.
double missProbabilityNearLossless(const graph::DisseminationGraph& dg,
                                   std::span<const double> lossRates,
                                   std::span<const util::SimTime> latencies,
                                   const DeliveryModelParams& params);

/// True if the fast path above is applicable.
bool nearLossless(const graph::DisseminationGraph& dg,
                  std::span<const double> lossRates, double lossEpsilon);

// ---------------------------------------------------------------------
// Receiver-set (multicast) evaluators. One flooded send on `dg` is
// scored against every receiver's own deadline. For a single receiver
// these are bit-identical to the unicast evaluators above (same RNG draw
// discipline, same Dijkstra, same arithmetic) -- pinned by test.
// ---------------------------------------------------------------------

/// Near-lossless group evaluation: one unbounded earliest-arrival run,
/// then per receiver the unicast deterministic verdict -- miss 1.0 when
/// unreachable or late, otherwise the residual loss summed along that
/// receiver's earliest-path predecessor chain. Fills missOut[i] and
/// arrivalOut[i] (util::kNever when unreachable), both sized to the
/// receiver count.
void missGroupNearLossless(const graph::DisseminationGraph& dg,
                           std::span<const graph::NodeId> receivers,
                           std::span<const util::SimTime> deadlines,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           DeliveryWorkspace& workspace,
                           std::span<double> missOut,
                           std::span<util::SimTime> arrivalOut);

/// Clean (no-loss) earliest arrival per receiver under the given
/// latencies; util::kNever where unreachable. Equals
/// DisseminationGraph::latencyToDestination for each receiver.
void groupCleanArrivals(const graph::DisseminationGraph& dg,
                        std::span<const util::SimTime> latencies,
                        std::span<const graph::NodeId> receivers,
                        DeliveryWorkspace& workspace,
                        std::span<util::SimTime> arrivalOut);

/// Transmissions per packet, DisseminationGraph::cost(latencies), read
/// off the earliest-arrival tree the last missGroupNearLossless or
/// groupCleanArrivals call left in `workspace` for the same graph and
/// latencies: the workspace's Dijkstra pops and relaxes exactly as
/// cost()'s own, so every node has the same first-arrival predecessor.
/// Allocation-free.
int groupTransmissionCost(const graph::DisseminationGraph& dg,
                          std::span<const util::SimTime> latencies,
                          const DeliveryWorkspace& workspace);

/// Monte-Carlo group evaluation: for each sample every member edge draws
/// its hop outcome exactly as the unicast evaluator does (identical RNG
/// stream; `rng` is advanced by samples * memberCount draws), and every
/// receiver gets an on-time verdict against its own deadline.
/// onTimeCounts[i] (receiver count) accumulates per-receiver on-time
/// samples; deliveredHistogram[c] (receiver count + 1) counts samples
/// delivered on time to exactly c receivers -- delivered-to-all is the
/// last bin, delivered-to-k is an upper tail sum. Both are zeroed here.
void onTimeCountsMCGroup(const graph::DisseminationGraph& dg,
                         std::span<const graph::NodeId> receivers,
                         std::span<const util::SimTime> deadlines,
                         std::span<const double> lossRates,
                         std::span<const util::SimTime> latencies,
                         const DeliveryModelParams& params, int samples,
                         util::Rng& rng, DeliveryWorkspace& workspace,
                         std::span<int> onTimeCounts,
                         std::span<int> deliveredHistogram);

}  // namespace dg::playback
