#include "playback/delivery_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define DG_MC_HAVE_SIMD_TARGETS 1
#endif

namespace dg::playback {

namespace detail {

namespace {
// Test-only kernel pin; every kernel is bit-identical, so the selection
// cannot affect results -- only which code path the equivalence tests
// exercise.
McKernel g_mcKernelOverride =  // dglint: ok(R3): test-only kernel pin
    McKernel::kAuto;
}  // namespace

void setMcKernelForTest(McKernel kernel) { g_mcKernelOverride = kernel; }

bool mcKernelSupported(McKernel kernel) {
#if DG_MC_HAVE_SIMD_TARGETS
  if (kernel == McKernel::kLanes4Avx2) {
    return __builtin_cpu_supports("avx2") != 0;
  }
  if (kernel == McKernel::kLanes8Avx512) {
    return __builtin_cpu_supports("avx512f") != 0;
  }
  return true;
#else
  return kernel == McKernel::kAuto || kernel == McKernel::kFusedScalar;
#endif
}

void DaryHeap::push(util::SimTime time, graph::NodeId node) {
  entries_.push_back(Entry{time, node});
  std::size_t i = entries_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!less(entries_[i], entries_[parent])) break;
    std::swap(entries_[i], entries_[parent]);
    i = parent;
  }
}

DaryHeap::Entry DaryHeap::popMin() {
  const Entry top = entries_.front();
  entries_.front() = entries_.back();
  entries_.pop_back();
  const std::size_t n = entries_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t firstChild = i * kArity + 1;
    if (firstChild >= n) break;
    const std::size_t lastChild = std::min(firstChild + kArity, n);
    std::size_t best = firstChild;
    for (std::size_t c = firstChild + 1; c < lastChild; ++c) {
      if (less(entries_[c], entries_[best])) best = c;
    }
    if (!less(entries_[best], entries_[i])) break;
    std::swap(entries_[i], entries_[best]);
    i = best;
  }
  return top;
}

void SampleOutcomeCache::beginEpoch() {
  if (slots_.empty()) slots_.resize(kSlots);
  if (++epoch_ == 0) {  // uint32 wrap: stale tags could alias, hard-reset
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
}

void SampleOutcomeCache::add(std::uint64_t keyLo, std::uint64_t keyHi,
                             std::vector<McPattern>& patterns) {
  std::uint64_t h = keyLo * 0x9E3779B97F4A7C15ULL + keyHi;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  for (std::size_t probe = 0; probe < kMaxProbes; ++probe) {
    const std::size_t i = (static_cast<std::size_t>(h) + probe) & (kSlots - 1);
    Slot& slot = slots_[i];
    if (slot.epoch != epoch_) {
      slot.keyLo = keyLo;
      slot.keyHi = keyHi;
      slot.epoch = epoch_;
      slot.entry = static_cast<std::uint32_t>(patterns.size());
      patterns.push_back(McPattern{keyLo, keyHi, 1});  // dgcheck: ok(R5): the caller reserves one entry per sample
      return;
    }
    if (slot.keyLo == keyLo && slot.keyHi == keyHi) {
      ++patterns[slot.entry].count;
      return;
    }
  }
  patterns.push_back(McPattern{keyLo, keyHi, 1});  // dgcheck: ok(R5): the caller reserves one entry per sample
}

}  // namespace detail

void DeliveryWorkspace::prepare(const graph::Graph& overlay) {
  if (sampledHop.size() < overlay.edgeCount())
    sampledHop.resize(overlay.edgeCount());
  if (dist.size() < overlay.nodeCount()) dist.resize(overlay.nodeCount());
  if (via.size() < overlay.nodeCount()) via.resize(overlay.nodeCount());
  if (mcMemberOf.size() < overlay.edgeCount())
    mcMemberOf.resize(overlay.edgeCount());
  heap.clear();
}

util::SimTime sampleHopLatency(double lossRate, util::SimTime latency,
                               const DeliveryModelParams& params,
                               util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 1.0 - lossRate) return latency;
  if (!params.recoveryEnabled) return util::kNever;
  if (u < 1.0 - lossRate * lossRate) {
    return 3 * latency + params.packetInterval;
  }
  return util::kNever;
}

namespace {

/// Earliest-arrival deadline check of the unicast sample loop: true iff
/// the destination is reachable within the deadline when member edge e
/// delivers after weights[e] (kNever = lost). When it is, ws.via holds
/// the destination's earliest path (every node on it was popped). Dijkstra
/// on the workspace's flat heap; see DaryHeap for why the result is
/// identical to a std::priority_queue run.
bool onTimeUnder(const graph::DisseminationGraph& dg,
                 std::span<const util::SimTime> weights,
                 util::SimTime deadline, DeliveryWorkspace& ws) {
  const graph::Graph& overlay = dg.overlay();
  std::fill_n(ws.dist.begin(),
              static_cast<std::ptrdiff_t>(overlay.nodeCount()),
              util::kNever);
  ws.heap.clear();
  ws.dist[dg.source()] = 0;
  ws.heap.push(0, dg.source());
  while (!ws.heap.empty()) {
    const auto [d, u] = ws.heap.popMin();
    if (d > ws.dist[u]) continue;
    if (u == dg.destination()) return d <= deadline;
    if (d > deadline) return false;  // nothing reachable in time anymore
    for (const graph::EdgeId e : dg.outEdges(u)) {
      if (weights[e] == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      const util::SimTime nd = d + weights[e];
      if (nd < ws.dist[v]) {
        ws.dist[v] = nd;
        ws.via[v] = e;
        ws.heap.push(nd, v);
      }
    }
  }
  return false;
}

/// Like onTimeUnder, but finalizes *every* node whose earliest arrival is
/// within the deadline (no destination early-exit), leaving those exact
/// distances in ws.dist: when the loop stops, all unpopped tentative
/// distances exceed the heap minimum that triggered the stop, so a node
/// has ws.dist <= deadline iff its true distance is. Returns the same
/// on-time verdict as onTimeUnder.
bool distancesWithin(const graph::DisseminationGraph& dg,
                     std::span<const util::SimTime> weights,
                     util::SimTime deadline, DeliveryWorkspace& ws) {
  const graph::Graph& overlay = dg.overlay();
  const std::size_t nodeCount = overlay.nodeCount();
  std::fill_n(ws.dist.begin(), static_cast<std::ptrdiff_t>(nodeCount),
              util::kNever);
  std::fill_n(ws.via.begin(), static_cast<std::ptrdiff_t>(nodeCount),
              graph::kInvalidEdge);
  ws.heap.clear();
  ws.dist[dg.source()] = 0;
  ws.heap.push(0, dg.source());
  while (!ws.heap.empty()) {
    const auto [d, u] = ws.heap.popMin();
    if (d > ws.dist[u]) continue;
    if (d > deadline) break;
    for (const graph::EdgeId e : dg.outEdges(u)) {
      if (weights[e] == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      const util::SimTime nd = d + weights[e];
      if (nd < ws.dist[v]) {
        ws.dist[v] = nd;
        ws.via[v] = e;
        ws.heap.push(nd, v);
      }
    }
  }
  return ws.dist[dg.destination()] <= deadline;
}

/// Draws samples [first, last) serially from `rng` -- member by member,
/// one sample after another -- into their 2-bit outcome-pattern keys
/// (0 = on-time, 1 = recovered, 2 = lost per member edge) at
/// keyLo/keyHi[s]. The thresholds nest, so 1 + the second comparison is
/// the band index. The on-time branch is the overwhelmingly common case --
/// with baseline loss rates it is taken ~99.99% of the time -- so the
/// key-building work is kept off that path entirely, and the classify
/// work hides under the serial RNG dependency chain.
void drawSerialKeys(util::Rng& rng, std::size_t memberCount,
                    const std::uint64_t* thrOnTime,
                    const std::uint64_t* thrRecovered, std::size_t first,
                    std::size_t last, std::uint64_t* keyLo,
                    std::uint64_t* keyHi) {
  const std::size_t lowCount = std::min<std::size_t>(memberCount, 32);
  for (std::size_t s = first; s < last; ++s) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    for (std::size_t i = 0; i < lowCount; ++i) {
      const std::uint64_t k = rng.next() >> 11;
      if (k >= thrOnTime[i]) [[unlikely]] {
        const std::uint64_t code =
            1 + static_cast<std::uint64_t>(k >= thrRecovered[i]);
        lo |= code << (2 * i);
      }
    }
    for (std::size_t i = 32; i < memberCount; ++i) {
      const std::uint64_t k = rng.next() >> 11;
      if (k >= thrOnTime[i]) [[unlikely]] {
        const std::uint64_t code =
            1 + static_cast<std::uint64_t>(k >= thrRecovered[i]);
        hi |= code << (2 * (i - 32));
      }
    }
    keyLo[s] = lo;
    keyHi[s] = hi;
  }
}

/// Low key word mark of a sample the lane kernels flagged: code 3 at
/// member 31, which no drawn key has.
constexpr std::uint64_t kFlagged = std::uint64_t{3} << 62;

#if DG_MC_HAVE_SIMD_TARGETS
// The lane kernels are one generic body over GCC vector types, compiled
// once per instruction set: each entry point carries its target attribute
// and the always-inline body takes it on -- 4 lanes in AVX2 registers, 8
// in AVX-512 registers (where the rotates become single instructions).
// Vectors only pass by reference, so no call boundary has a vector ABI.
using Lanes4 = std::uint64_t __attribute__((vector_size(32)));
using Lanes4Signed = std::int64_t __attribute__((vector_size(32)));
using Lanes8 = std::uint64_t __attribute__((vector_size(64)));
using Lanes8Signed = std::int64_t __attribute__((vector_size(64)));

/// xoshiro256** on every lane: writes each lane's next output to `out`
/// and steps its state. The multiplies are shift-adds
/// (s1 * 5 = s1 + (s1 << 2), r * 9 = r + (r << 3)): two single-cycle
/// operations where a 64-bit lane multiply takes several cycles, or does
/// not exist (AVX2).
template <typename V>
__attribute__((always_inline)) inline void nextLanes(V& s0, V& s1, V& s2,
                                                     V& s3, V& out) {
  const V x5 = s1 + (s1 << 2);
  const V r = (x5 << 7) | (x5 >> 57);
  out = r + (r << 3);
  const V t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = (s3 << 45) | (s3 >> 19);
}

/// What the lane kernels draw and classify: the call's lossy members in
/// member order (the first loSteps feed the low key word, the others the
/// high one, which starts at member keySplit) and every member's
/// near-lossless bound.
struct McLaneProgram {
  std::size_t memberCount = 0;
  std::size_t keySplit = 0;
  std::size_t loSteps = 0;
  std::size_t steps = 0;
  const detail::McLossyStep* lossy = nullptr;
  const std::uint64_t* rareFrom = nullptr;
};

/// Adds one lossy member's outcome code to every lane's key: `bit`
/// (code 1) once per band the draw lies beyond, on-time -> recovered ->
/// lost, as a compare and a masked add per band. Both sides of the
/// compares are 53-bit integers, so signed compares are exact.
template <typename V, typename S>
__attribute__((always_inline)) inline void addCode(
    V& key, const V& draw, const detail::McLossyStep& step) {
  const S k = (S)(draw >> 11);
  key = k >= (S)(V{} + step.thrOnTime) ? key + step.bit : key;
  key = k >= (S)(V{} + step.thrRecovered) ? key + step.bit : key;
}

/// The lane kernel (see McKernel) on W = sizeof(V) / 8 lanes. First one
/// 256-step pass applies every lane's jump: a copy of the caller's state
/// steps through the generator on every lane and is XORed into lane j's
/// accumulator wherever lane j's polynomial has a 1. Then the lanes draw
/// and classify q samples each in lock-step; every lane is at the same
/// member at the same step, so the thresholds are broadcasts. A lossy
/// member adds its code to the key; a near-lossless one only flags the
/// sample when its raw draw reaches rareFrom, one unsigned compare (see
/// planMonteCarlo). A flagged sample's low key word gets kFlagged. Lane
/// j's t-th key lands at keyLo/keyHi[t * W + j] and its generator state
/// at the start of the sample in states[(4t + w) * W + j] for w = 0..3;
/// the last lane's end state goes to `end`.
// dgcheck: hot
template <typename V, typename S>
__attribute__((always_inline)) inline void laneKeys(
    const util::Rng::State& seed, const detail::McLaneJumps& jumps,
    const McLaneProgram& prog, std::size_t q, std::uint64_t* keyLo,
    std::uint64_t* keyHi, std::uint64_t* states, util::Rng::State& end) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(std::uint64_t);
  V laneBit = {};
  for (std::size_t j = 0; j < kLanes; ++j) laneBit[j] = std::uint64_t{1} << j;
  V s0 = V{} + seed[0];
  V s1 = V{} + seed[1];
  V s2 = V{} + seed[2];
  V s3 = V{} + seed[3];
  V a0 = {};
  V a1 = {};
  V a2 = {};
  V a3 = {};
  V draw = {};
  for (std::size_t i = 0; i < 256; ++i) {
    const V mask = (V)(((V{} + jumps.laneBits[i]) & laneBit) == laneBit);
    a0 ^= s0 & mask;
    a1 ^= s1 & mask;
    a2 ^= s2 & mask;
    a3 ^= s3 & mask;
    nextLanes(s0, s1, s2, s3, draw);
  }
  const V flagged = V{} + kFlagged;
  for (std::size_t t = 0; t < q; ++t) {
    std::uint64_t* state = states + 4 * kLanes * t;
    std::memcpy(state, &a0, sizeof a0);
    std::memcpy(state + kLanes, &a1, sizeof a1);
    std::memcpy(state + 2 * kLanes, &a2, sizeof a2);
    std::memcpy(state + 3 * kLanes, &a3, sizeof a3);
    V lo = {};
    V hi = {};
    V flag = {};
    std::size_t i = 0;
    const auto nearLosslessUntil =
        [&](std::size_t stop) __attribute__((always_inline)) {
          for (; i < stop; ++i) {
            nextLanes(a0, a1, a2, a3, draw);
            flag = draw >= (V{} + prog.rareFrom[i]) ? flagged : flag;
          }
        };
    std::size_t k = 0;
    for (; k < prog.loSteps; ++k) {
      nearLosslessUntil(prog.lossy[k].member);
      nextLanes(a0, a1, a2, a3, draw);
      addCode<V, S>(lo, draw, prog.lossy[k]);
      ++i;
    }
    nearLosslessUntil(prog.keySplit);
    for (; k < prog.steps; ++k) {
      nearLosslessUntil(prog.lossy[k].member);
      nextLanes(a0, a1, a2, a3, draw);
      addCode<V, S>(hi, draw, prog.lossy[k]);
      ++i;
    }
    nearLosslessUntil(prog.memberCount);
    lo |= flag;
    std::memcpy(keyLo + kLanes * t, &lo, sizeof lo);
    std::memcpy(keyHi + kLanes * t, &hi, sizeof hi);
  }
  end = {a0[kLanes - 1], a1[kLanes - 1], a2[kLanes - 1], a3[kLanes - 1]};
}

// dgcheck: hot
__attribute__((target("avx2"))) void laneKeysAvx2(
    const util::Rng::State& seed, const detail::McLaneJumps& jumps,
    const McLaneProgram& prog, std::size_t q, std::uint64_t* keyLo,
    std::uint64_t* keyHi, std::uint64_t* states, util::Rng::State& end) {
  laneKeys<Lanes4, Lanes4Signed>(seed, jumps, prog, q, keyLo, keyHi, states,
                                 end);
}

// dgcheck: hot
__attribute__((target("avx512f"))) void laneKeysAvx512(
    const util::Rng::State& seed, const detail::McLaneJumps& jumps,
    const McLaneProgram& prog, std::size_t q, std::uint64_t* keyLo,
    std::uint64_t* keyHi, std::uint64_t* states, util::Rng::State& end) {
  laneKeys<Lanes8, Lanes8Signed>(seed, jumps, prog, q, keyLo, keyHi, states,
                                 end);
}

/// The jump polynomials of a `lanes`-way split with `stride` draws per
/// lane, cached in the workspace per member count. A sweep keeps its
/// sample count, so each member count's split is built once per
/// workspace: x^stride mod P once, then each lane's polynomial is the
/// previous one times it.
const detail::McLaneJumps& laneJumps(DeliveryWorkspace& ws,
                                     std::size_t memberCount,
                                     std::uint64_t stride, int lanes) {
  if (ws.mcLaneJumps.size() <= memberCount) {
    ws.mcLaneJumps.resize(memberCount + 1);
  }
  detail::McLaneJumps& split = ws.mcLaneJumps[memberCount];
  if (split.lanes == lanes && split.stride == stride) return split;
  split.stride = stride;
  split.lanes = lanes;
  split.laneBits.fill(0);
  const util::JumpPoly step = util::jumpPoly(stride);
  util::JumpPoly poly = {1, 0, 0, 0};  // lane 0: x^0
  for (int j = 0; j < lanes; ++j) {
    if (j > 0) poly = util::jumpPolyMul(poly, step);
    for (std::size_t i = 0; i < 256; ++i) {
      split.laneBits[i] |= static_cast<std::uint8_t>(
          ((poly[i / 64] >> (i % 64)) & 1) << j);
    }
  }
  return split;
}
#endif  // DG_MC_HAVE_SIMD_TARGETS

/// Below this many draws per call (samples * memberCount) the serial
/// kernel beats the lanes: their 256-step jump pass costs about as much
/// as the draws it parallelizes. Measured on a 4-vCPU x86 VM (ltn12
/// graphs of 1-64 members): the 8-lane kernel wins from ~400 draws, the
/// 4-lane one from ~600.
constexpr std::size_t kMinLaneDraws = 512;

/// Kernel dispatch: honors a test pin the CPU can run, otherwise takes
/// the widest lane kernel it runs once the call has kMinLaneDraws draws.
/// Returns the lane count W, 1 for the fused serial kernel; with fewer
/// samples than lanes the whole call runs serially.
int resolveMcLanes(int samples, std::size_t memberCount) {
  using detail::McKernel;
  McKernel kernel = detail::g_mcKernelOverride;
  if (kernel == McKernel::kAuto) {
    static const McKernel widest =
        detail::mcKernelSupported(McKernel::kLanes8Avx512)
            ? McKernel::kLanes8Avx512
        : detail::mcKernelSupported(McKernel::kLanes4Avx2)
            ? McKernel::kLanes4Avx2
            : McKernel::kFusedScalar;
    const bool enoughDraws =
        static_cast<std::size_t>(samples) * memberCount >= kMinLaneDraws;
    kernel = enoughDraws ? widest : McKernel::kFusedScalar;
  } else if (!detail::mcKernelSupported(kernel)) {
    kernel = McKernel::kFusedScalar;
  }
  const int lanes = kernel == McKernel::kLanes8Avx512 ? 8
                    : kernel == McKernel::kLanes4Avx2 ? 4
                                                      : 1;
  return samples >= lanes ? lanes : 1;
}

/// Most lossy member edges a call may have for the dense count table,
/// whose 4^6 counts are indexed by those members' 2-bit codes. A member
/// is lossy when its loss rate exceeds 1 / samples, i.e. it deviates in
/// more than one sample per call on average.
constexpr std::size_t kDenseMaxLossy = 6;
constexpr std::size_t kDenseCounts = std::size_t{1} << (2 * kDenseMaxLossy);

/// On-time threshold of a member whose draws are all on time: 2^53.
constexpr std::uint64_t kNeverDeviates = std::uint64_t{1} << 53;

/// What one Monte-Carlo call derives before its sample loop (see
/// planMonteCarlo). A verdict is the bitmask of receivers reached on time.
struct McPlan {
  const graph::DisseminationGraph* dg = nullptr;
  std::span<const graph::NodeId> receivers;
  std::size_t memberCount = 0;
  /// Sample patterns fit the 128-bit key (<= 64 member edges) and
  /// verdicts fit 64 bits (<= 64 receivers): the keyed count-then-decide
  /// loop applies. Otherwise the unkeyed per-sample fallback runs.
  bool keyed = false;
  /// Loosest deadline among the receivers on time in the clean run; a
  /// sample's Dijkstra need not look further (nobody else can be on time).
  util::SimTime sampleDeadline = 0;
  /// Clean-run verdict (keyed only).
  std::uint64_t cleanVerdict = 0;
  /// Clean earliest paths' member edges at the even bit of their 2-bit
  /// key position (keyed only).
  std::uint64_t cleanPathLo = 0;
  std::uint64_t cleanPathHi = 0;
  /// Keyed calls with at most kDenseMaxLossy lossy members tally samples
  /// that deviate on those members only in the dense table: `lossy`
  /// holds their member indices, lossyLo/Hi both bits of their key
  /// positions.
  bool dense = false;
  std::size_t lossyCount = 0;
  std::array<std::uint8_t, kDenseMaxLossy> lossy = {};
  std::uint64_t lossyLo = 0;
  std::uint64_t lossyHi = 0;
  /// Keyed calls: ws.mcLossySteps lists every lossy member; the first
  /// loSteps feed the low key word, the rest the high one, which starts
  /// at member keySplit. A dense call puts all of them in the low word at
  /// their dense positions, so the lane kernels emit dense indices.
  std::size_t loSteps = 0;
  std::size_t keySplit = 0;
};

/// Set-up shared by both Monte-Carlo evaluators (the unicast one is the
/// one-receiver case):
///   - one clean (every edge on time) run bounded by the loosest deadline
///     finalizes every receiver: one left beyond it is late for *every*
///     deadline. Per-receiver clean verdicts land in ws.mcCleanOnTime;
///   - the per-member sampling tables. Draws are classified on the raw
///     53-bit integer instead of the double: sampleHopLatency draws
///     u = (next() >> 11) * 2^-53 and compares u < thr. Both u and
///     thr * 2^53 are exact doubles (a 53-bit integer scaled by a power of
///     two), so u < thr is *equivalent* to the integer comparison
///     (next() >> 11) < ceil(thr * 2^53) -- every draw classifies
///     identically, bit for bit. With recovery disabled the recovered
///     threshold is pinned to the on-time one so that band is empty;
///   - the clean-on-time receivers' earliest paths, marked per member in
///     ws.mcOnCleanPath. Sampled outcomes only ever slow an edge down
///     (recovered > on-time, lost = never), which makes every verdict
///     monotone in the clean one: a clean-late receiver is late in every
///     sample, and if a sample's deviating edges all avoid the marked
///     paths, those paths are intact and the clean verdict stands. Each
///     receiver's clean path also seeds ws.mcAbove (keyed calls): every
///     pattern that leaves that path intact keeps the receiver on time.
/// Keyed calls pre-fill the sampled weights with the clean outcome; each
/// Dijkstra run patches the deviating edges in and back out again.
McPlan planMonteCarlo(const graph::DisseminationGraph& dg,
                      std::span<const graph::NodeId> receivers,
                      std::span<const util::SimTime> deadlines,
                      std::span<const double> lossRates,
                      std::span<const util::SimTime> latencies,
                      const DeliveryModelParams& params, int samples,
                      DeliveryWorkspace& ws) {
  const graph::Graph& overlay = dg.overlay();
  ws.prepare(overlay);
  const std::vector<graph::EdgeId>& members = dg.edges();
  const std::size_t receiverCount = receivers.size();
  McPlan plan;
  plan.dg = &dg;
  plan.receivers = receivers;
  plan.memberCount = members.size();
  plan.keyed = plan.memberCount <= 64 && receiverCount <= 64;

  util::SimTime maxDeadline = 0;
  for (const util::SimTime d : deadlines) {
    maxDeadline = std::max(maxDeadline, d);
  }
  distancesWithin(dg, latencies, maxDeadline, ws);
  if (ws.mcCleanOnTime.size() < receiverCount)
    ws.mcCleanOnTime.resize(receiverCount);
  for (std::size_t r = 0; r < receiverCount; ++r) {
    const bool onTime = ws.dist[receivers[r]] <= deadlines[r];
    ws.mcCleanOnTime[r] = onTime ? 1 : 0;
    if (!onTime) continue;
    plan.sampleDeadline = std::max(plan.sampleDeadline, deadlines[r]);
    if (plan.keyed) plan.cleanVerdict |= std::uint64_t{1} << r;
  }

  const std::size_t memberCount = plan.memberCount;
  if (ws.mcThrOnTime.size() < memberCount) {
    ws.mcThrOnTime.resize(memberCount);
    ws.mcThrRecovered.resize(memberCount);
    ws.mcLatency.resize(memberCount);
    ws.mcRecoveredLatency.resize(memberCount);
    ws.mcOnCleanPath.resize(memberCount);
  }
  if (ws.mcRareFrom.size() < memberCount) ws.mcRareFrom.resize(memberCount);
  constexpr double kScale53 = 9007199254740992.0;  // 2^53
  const double lossyAbove = 1.0 / static_cast<double>(samples);
  for (std::size_t i = 0; i < memberCount; ++i) {
    const double p = lossRates[members[i]];
    const util::SimTime lat = latencies[members[i]];
    ws.mcThrOnTime[i] =
        static_cast<std::uint64_t>(std::ceil((1.0 - p) * kScale53));
    ws.mcThrRecovered[i] =
        params.recoveryEnabled
            ? static_cast<std::uint64_t>(std::ceil((1.0 - p * p) * kScale53))
            : ws.mcThrOnTime[i];
    // (d >> 11) >= thr holds exactly when d >= thr * 2^11 for thr < 2^53.
    // A member with thr = 2^53 never deviates; its sentinel bound flags
    // only d = 2^64 - 1, and a flagged sample is re-drawn exactly.
    ws.mcRareFrom[i] = ws.mcThrOnTime[i] < kNeverDeviates
                           ? ws.mcThrOnTime[i] << 11
                           : ~std::uint64_t{0};
    ws.mcLatency[i] = lat;
    ws.mcRecoveredLatency[i] = 3 * lat + params.packetInterval;
    ws.mcMemberOf[members[i]] = static_cast<std::uint32_t>(i);
    if (plan.keyed && p > lossyAbove) {
      if (plan.lossyCount < kDenseMaxLossy) {
        plan.lossy[plan.lossyCount] = static_cast<std::uint8_t>(i);
        (i < 32 ? plan.lossyLo : plan.lossyHi) |= std::uint64_t{3}
                                                   << (2 * (i & 31));
      }
      ++plan.lossyCount;
    }
  }
  plan.dense = plan.keyed && plan.lossyCount <= kDenseMaxLossy;
  ws.mcLossySteps.clear();
  if (plan.keyed) {
    plan.keySplit =
        plan.dense ? memberCount : std::min<std::size_t>(memberCount, 32);
    for (std::size_t i = 0; i < memberCount; ++i) {
      if (!(lossRates[members[i]] > lossyAbove)) continue;
      const std::size_t position =
          plan.dense ? ws.mcLossySteps.size() : (i & 31);
      if (i < plan.keySplit) ++plan.loSteps;
      ws.mcLossySteps.push_back(detail::McLossyStep{  // dgcheck: ok(R5): workspace list; its capacity settles after the first calls
          static_cast<std::uint32_t>(i), ws.mcThrOnTime[i],
          ws.mcThrRecovered[i], std::uint64_t{1} << (2 * position)});
    }
  }

  std::fill_n(ws.mcOnCleanPath.begin(),
              static_cast<std::ptrdiff_t>(memberCount), char{0});
  ws.mcAbove.clear();
  ws.mcAbove.reserve(receiverCount);
  ws.mcBelow.clear();
  for (std::size_t r = 0; r < receiverCount; ++r) {
    if (ws.mcCleanOnTime[r] == 0) continue;
    std::uint64_t pathLo = 0;
    std::uint64_t pathHi = 0;
    for (graph::NodeId n = receivers[r]; n != dg.source();) {
      const graph::EdgeId e = ws.via[n];
      const std::uint32_t i = ws.mcMemberOf[e];
      ws.mcOnCleanPath[i] = 1;
      (i < 32 ? pathLo : pathHi) |= std::uint64_t{3} << (2 * (i & 31));
      n = overlay.edge(e).from;
    }
    if (plan.keyed) {
      ws.mcAbove.push_back(
          detail::McBound{~pathLo, ~pathHi, std::uint64_t{1} << r});
    }
  }
  if (!plan.keyed) {
    // The unkeyed fallback draws one sample at a time into mcDraws.
    if (ws.mcDraws.size() < memberCount) ws.mcDraws.resize(memberCount);
  } else {
    for (std::size_t i = 0; i < memberCount; ++i) {
      ws.sampledHop[members[i]] = ws.mcLatency[i];
      if (ws.mcOnCleanPath[i] != 0) {
        (i < 32 ? plan.cleanPathLo : plan.cleanPathHi) |=
            std::uint64_t{1} << (2 * (i & 31));
      }
    }
  }
  return plan;
}

/// True iff some member on a clean earliest path deviates in the pattern:
/// each 2-bit code collapses to its even bit (a pair is never 11) and
/// meets the clean-path mask.
bool touchesCleanPath(const McPlan& plan, std::uint64_t lo, std::uint64_t hi) {
  return (((lo | (lo >> 1)) & plan.cleanPathLo) |
          ((hi | (hi >> 1)) & plan.cleanPathHi)) != 0;
}

/// Counts a keyed call's samples by outcome pattern. Patterns whose
/// deviating members all avoid the clean earliest paths keep the clean
/// verdict and are only counted: the return value. The rest end in
/// ws.mcPatterns as one entry per distinct pattern: the dense ones, then
/// the keyed ones, each in ascending (keyHi, keyLo) order. Codes grow
/// with the outcome's severity, so a pattern no member of which is worse
/// than in another sorts first, and no keyed pattern lies below a dense
/// one. The order is therefore a linear extension of the outcome order:
/// decidePattern sees every evaluated pattern below the one it decides.
///
/// Samples [0, laneEnd) come from the lane kernels: `replay(s)` re-draws
/// a flagged one into its full key. The others hold full keys. A dense
/// call counts every sample that deviates on lossy members only at its
/// dense index -- which the lane kernels emit directly -- without a
/// branch per sample: whether a sample touches a clean path is about a
/// coin flip, so a branch on it would mispredict half the time. Its
/// patterns are sorted into clean and other ones afterwards, and the
/// dense counts are zero again on return. Every other sample is moved to
/// the front of keyLo/keyHi (which it overwrites) and counted in the
/// keyed table.
// dgcheck: hot
template <typename ReplayFn>
int tallyPatterns(const McPlan& plan, std::uint64_t* keyLo,
                  std::uint64_t* keyHi, std::size_t laneEnd,
                  std::size_t total, DeliveryWorkspace& ws,
                  ReplayFn&& replay) {
  std::vector<detail::McPattern>& patterns = ws.mcPatterns;
  patterns.clear();
  patterns.reserve(total);
  int cleanCount = 0;
  std::size_t keyed = 0;
  if (plan.dense) {
    if (ws.mcDenseCounts.size() < kDenseCounts) {
      ws.mcDenseCounts.resize(kDenseCounts);
      ws.mcDenseTouched.resize(kDenseCounts + 1);
    }
    std::uint32_t* counts = ws.mcDenseCounts.data();
    std::uint32_t* touched = ws.mcDenseTouched.data();
    std::size_t touchedCount = 0;
    const auto count = [&](std::uint64_t index) {
      touched[touchedCount] = static_cast<std::uint32_t>(index);
      touchedCount += counts[index]++ == 0 ? 1u : 0u;
    };
    // A full key deviating off the lossy set goes to the keyed table; one
    // that does not (every serially drawn key, or a flag raised by the
    // sentinel bound) is counted at its dense index.
    const auto countFullKey = [&](std::size_t s) {
      const std::uint64_t lo = keyLo[s];
      const std::uint64_t hi = keyHi[s];
      if (((lo & ~plan.lossyLo) | (hi & ~plan.lossyHi)) != 0) {
        keyLo[keyed] = lo;
        keyHi[keyed] = hi;
        ++keyed;
        return;
      }
      std::uint64_t index = 0;
      for (std::size_t j = 0; j < plan.lossyCount; ++j) {
        const std::size_t i = plan.lossy[j];
        const std::uint64_t word = i < 32 ? lo : hi;
        index |= ((word >> (2 * (i & 31))) & 3) << (2 * j);
      }
      count(index);
    };
    for (std::size_t s = 0; s < laneEnd; ++s) {
      if (keyLo[s] >= kFlagged) [[unlikely]] {
        replay(s);
        countFullKey(s);
        continue;
      }
      count(keyLo[s]);
    }
    for (std::size_t s = laneEnd; s < total; ++s) countFullKey(s);
    // Ascending dense indices give ascending keys: both list the lossy
    // members' codes in member order.
    std::sort(touched, touched + touchedCount);
    for (std::size_t k = 0; k < touchedCount; ++k) {
      const std::uint32_t index = touched[k];
      detail::McPattern pattern;
      pattern.count = counts[index];
      counts[index] = 0;
      for (std::size_t j = 0; j < plan.lossyCount; ++j) {
        const std::size_t i = plan.lossy[j];
        (i < 32 ? pattern.keyLo : pattern.keyHi) |=
            static_cast<std::uint64_t>((index >> (2 * j)) & 3)
            << (2 * (i & 31));
      }
      if (touchesCleanPath(plan, pattern.keyLo, pattern.keyHi)) {
        patterns.push_back(pattern);
      } else {
        cleanCount += static_cast<int>(pattern.count);
      }
    }
  } else {
    for (std::size_t s = 0; s < total; ++s) {
      if (s < laneEnd && keyLo[s] >= kFlagged) [[unlikely]] replay(s);
      const std::uint64_t lo = keyLo[s];
      const std::uint64_t hi = keyHi[s];
      keyLo[keyed] = lo;
      keyHi[keyed] = hi;
      keyed += touchesCleanPath(plan, lo, hi) ? 1u : 0u;
    }
    cleanCount = static_cast<int>(total - keyed);
  }
  // Keyed patterns come after the dense ones: each deviates on a member
  // where no dense pattern does, so none lies below a dense pattern.
  const auto keyedFrom = static_cast<std::ptrdiff_t>(patterns.size());
  ws.outcomeCache.beginEpoch();
  for (std::size_t s = 0; s < keyed; ++s) {
    if (touchesCleanPath(plan, keyLo[s], keyHi[s])) {
      ws.outcomeCache.add(keyLo[s], keyHi[s], patterns);
    } else {
      ++cleanCount;
    }
  }
  // (keyHi, keyLo) order, compared as one unsigned 128-bit value: one
  // compare instead of two branches.
  __extension__ typedef unsigned __int128 Key128;
  const auto key128 = [](const detail::McPattern& p) {
    return static_cast<Key128>(p.keyHi) << 64 | p.keyLo;
  };
  std::sort(patterns.begin() + keyedFrom, patterns.end(),
            [&key128](const detail::McPattern& a, const detail::McPattern& b) {
              return key128(a) < key128(b);
            });
  // A pattern whose keyed probe window was busy has several entries.
  std::size_t distinct = 0;
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    if (distinct > 0 && patterns[distinct - 1].keyLo == patterns[k].keyLo &&
        patterns[distinct - 1].keyHi == patterns[k].keyHi) {
      patterns[distinct - 1].count += patterns[k].count;
    } else {
      patterns[distinct++] = patterns[k];
    }
  }
  patterns.resize(distinct);
  return cleanCount;
}

/// Thermometer code of a 2-bit key word: 00 -> 00, 01 -> 01, 10 -> 11.
std::uint64_t thermometer(std::uint64_t key) {
  return key | ((key >> 1) & 0x5555555555555555ULL);
}

/// True iff no member's outcome in thermometer pattern `a` is worse than
/// in `b`.
bool noWorse(const detail::McBound& a, const detail::McBound& b) {
  return ((a.lo & ~b.lo) | (a.hi & ~b.hi)) == 0;
}

/// Adds `bound` to an antichain unless an entry already implies it, and
/// drops the entries it implies; implies(x, y) says whether x makes y
/// redundant.
template <typename ImpliesFn>
void addBound(std::vector<detail::McBound>& bounds,
              const detail::McBound& bound, ImpliesFn implies) {
  for (const detail::McBound& b : bounds) {
    if (implies(b, bound)) return;
  }
  std::erase_if(bounds,
                [&](const detail::McBound& b) { return implies(bound, b); });
  bounds.push_back(bound);  // dgcheck: ok(R5): workspace antichain; its capacity settles after the first calls
}

/// Verdict of one distinct pattern, by monotone inference when the
/// decided patterns pin it, otherwise by a Dijkstra run. Sampled outcomes
/// only slow an edge down, so a pattern no member of which is worse than
/// in another reaches a superset of its receivers on time:
///   - upper bound: the clean verdict, intersected with the verdict of
///     every evaluated pattern in ws.mcBelow that lies below it;
///   - lower bound: the union of the verdicts of every ws.mcAbove entry
///     it lies below.
/// When they agree that is the verdict. Otherwise `evaluate()` runs over
/// ws.sampledHop with the deviating edges patched in; its verdict enters
/// ws.mcBelow, and each on-time receiver's earliest path enters ws.mcAbove
/// as the pattern widened to "lost" on every member off that path -- the
/// path, and so the receiver, stays on time in every pattern below it.
template <typename EvaluateFn>
std::uint64_t decidePattern(const detail::McPattern& pattern,
                            const McPlan& plan,
                            const std::vector<graph::EdgeId>& members,
                            DeliveryWorkspace& ws, EvaluateFn& evaluate) {
  const detail::McBound at{thermometer(pattern.keyLo),
                           thermometer(pattern.keyHi), 0};
  std::uint64_t upper = plan.cleanVerdict;
  for (const detail::McBound& b : ws.mcBelow) {
    if (noWorse(b, at)) upper &= b.verdict;
  }
  std::uint64_t lower = 0;
  if (upper != 0) {
    for (const detail::McBound& b : ws.mcAbove) {
      if (!noWorse(at, b)) continue;
      lower |= b.verdict;
      if (lower == upper) break;
    }
  }
  if (lower == upper) {
    ++ws.work.inferredVerdicts;
    return upper;
  }
  // A Dijkstra run is actually needed: patch the deviating edges into the
  // pre-filled clean weights. A code pair is never 11, so every set key
  // bit identifies one deviating edge -- even bit means recovered, odd
  // bit means lost.
  const auto patch = [&](std::uint64_t bits, std::size_t base, bool restore) {
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const std::size_t i = base + static_cast<std::size_t>(b >> 1);
      ws.sampledHop[members[i]] =
          restore ? ws.mcLatency[i]
          : (b & 1) != 0 ? util::kNever
                         : ws.mcRecoveredLatency[i];
    }
  };
  patch(pattern.keyLo, 0, false);
  patch(pattern.keyHi, 32, false);
  const std::uint64_t verdict = evaluate();
  patch(pattern.keyLo, 0, true);
  patch(pattern.keyHi, 32, true);
  ++ws.work.dijkstraRuns;

  if (verdict != plan.cleanVerdict) {
    addBound(ws.mcBelow, detail::McBound{at.lo, at.hi, verdict},
             [](const detail::McBound& x, const detail::McBound& y) {
               return noWorse(x, y) && (x.verdict & ~y.verdict) == 0;
             });
  }
  const graph::Graph& overlay = plan.dg->overlay();
  for (std::uint64_t bits = verdict; bits != 0; bits &= bits - 1) {
    const auto r = static_cast<std::size_t>(std::countr_zero(bits));
    std::uint64_t pathLo = 0;
    std::uint64_t pathHi = 0;
    for (graph::NodeId n = plan.receivers[r]; n != plan.dg->source();) {
      const graph::EdgeId e = ws.via[n];
      const std::uint32_t i = ws.mcMemberOf[e];
      (i < 32 ? pathLo : pathHi) |= std::uint64_t{3} << (2 * (i & 31));
      n = overlay.edge(e).from;
    }
    addBound(ws.mcAbove,
             detail::McBound{at.lo | ~pathLo, at.hi | ~pathHi,
                             std::uint64_t{1} << r},
             [](const detail::McBound& x, const detail::McBound& y) {
               return noWorse(y, x) && (y.verdict & ~x.verdict) == 0;
             });
  }
  return verdict;
}

/// The keyed sample loop both evaluators share (plan.keyed only): draws
/// every sample's member outcomes with the dispatched kernel into the
/// sample's 2-bit outcome-pattern key, counts the samples per pattern
/// (tallyPatterns), then decides each distinct pattern once
/// (decidePattern) and passes `score` its verdict and sample count. A
/// verdict is a pure function of its pattern and the counts are integers,
/// so the result does not depend on the order in which patterns are
/// scored. Every kernel consumes the same draws in the same order: `rng`
/// ends advanced by exactly samples * memberCount draws, and the distinct
/// patterns and their counts -- hence every Dijkstra run -- are the same
/// under every kernel.
///
/// The lane kernels key only the lossy members (a dense call's at their
/// dense positions) and flag a sample in which a near-lossless member may
/// deviate. The tally re-draws each flagged sample serially from its
/// lane's state snapshot, which gives it the full key the serial kernel
/// draws, and then treats it as a serially drawn sample.
// dgcheck: hot
template <typename EvaluateFn, typename ScoreFn>
void scoreKeyedSamples(const McPlan& plan,
                       const std::vector<graph::EdgeId>& members,
                       int samples, util::Rng& rng, DeliveryWorkspace& ws,
                       EvaluateFn&& evaluate, ScoreFn&& score) {
  const std::size_t memberCount = plan.memberCount;
  const std::uint64_t* thrOnTime = ws.mcThrOnTime.data();
  const std::uint64_t* thrRecovered = ws.mcThrRecovered.data();
  const auto total = static_cast<std::size_t>(samples);
  if (ws.mcKeyLo.size() < total) {
    ws.mcKeyLo.resize(total);
    ws.mcKeyHi.resize(total);
  }
  std::uint64_t* keyLo = ws.mcKeyLo.data();
  std::uint64_t* keyHi = ws.mcKeyHi.data();
  // W lanes of q samples each; the serial kernel is the one-lane case.
  const auto width =
      static_cast<std::size_t>(resolveMcLanes(samples, memberCount));
  const std::size_t q = total / width;
  // Draw through a local generator so the four state words live in
  // registers for the whole loop nest (the caller's rng is advanced to
  // the same final state below).
  util::Rng localRng = rng;
  std::size_t serialFrom = 0;
#if DG_MC_HAVE_SIMD_TARGETS
  if (width > 1) {
    const detail::McLaneJumps& jumps = laneJumps(
        ws, memberCount, q * memberCount, static_cast<int>(width));
    if (ws.mcLaneStates.size() < 4 * width * q)
      ws.mcLaneStates.resize(4 * width * q);
    McLaneProgram prog;
    prog.memberCount = memberCount;
    prog.keySplit = plan.keySplit;
    prog.loSteps = plan.loSteps;
    prog.steps = ws.mcLossySteps.size();
    prog.lossy = ws.mcLossySteps.data();
    prog.rareFrom = ws.mcRareFrom.data();
    util::Rng::State end = {};
    if (width == 8) {
      laneKeysAvx512(localRng.state(), jumps, prog, q, keyLo, keyHi,
                     ws.mcLaneStates.data(), end);
    } else {
      laneKeysAvx2(localRng.state(), jumps, prog, q, keyLo, keyHi,
                   ws.mcLaneStates.data(), end);
    }
    // The last lane ended width * q samples into the stream, exactly where
    // the serial leftovers start.
    localRng.setState(end);
    serialFrom = width * q;
  }
#endif
  drawSerialKeys(localRng, memberCount, thrOnTime, thrRecovered, serialFrom,
                 total, keyLo, keyHi);
  rng = localRng;

  // Re-draws flagged lane sample s from its lane's snapshot at the
  // sample's start into its full key.
  const auto replay = [&](std::size_t s) {
    const std::uint64_t* state =
        ws.mcLaneStates.data() + 4 * width * (s / width) + s % width;
    util::Rng sampleRng;
    sampleRng.setState(
        {state[0], state[width], state[2 * width], state[3 * width]});
    drawSerialKeys(sampleRng, memberCount, thrOnTime, thrRecovered, s, s + 1,
                   keyLo, keyHi);
    ++ws.mcReplayedSamples;
  };
  const int cleanCount =
      tallyPatterns(plan, keyLo, keyHi, serialFrom, total, ws, replay);
  if (cleanCount > 0) score(plan.cleanVerdict, cleanCount);
  for (const detail::McPattern& pattern : ws.mcPatterns) {
    score(decidePattern(pattern, plan, members, ws, evaluate),
          static_cast<int>(pattern.count));
  }
}

/// One sample of the unkeyed fallback (graphs beyond the pattern key):
/// classifies the sample's raw draws (one per member edge, in member
/// order) straight into ws.sampledHop and returns true iff some deviating
/// edge lies on a clean earliest path -- only then can the sample's
/// verdict differ from the clean one.
bool sampleUnkeyed(const std::uint64_t* draws, std::size_t memberCount,
                   const std::vector<graph::EdgeId>& members,
                   DeliveryWorkspace& ws) {
  bool touches = false;
  for (std::size_t i = 0; i < memberCount; ++i) {
    const std::uint64_t k = draws[i] >> 11;
    const util::SimTime hop = k < ws.mcThrOnTime[i] ? ws.mcLatency[i]
                              : k < ws.mcThrRecovered[i]
                                  ? ws.mcRecoveredLatency[i]
                                  : util::kNever;
    ws.sampledHop[members[i]] = hop;
    touches |= hop != ws.mcLatency[i] && ws.mcOnCleanPath[i] != 0;
  }
  return touches;
}

/// The unicast sample loop: how many of `samples` (> 0) reach
/// dg.destination() within params.deadline.
int onTimeSamples(const graph::DisseminationGraph& dg,
                  std::span<const double> lossRates,
                  std::span<const util::SimTime> latencies,
                  const DeliveryModelParams& params, int samples,
                  util::Rng& rng, DeliveryWorkspace& ws) {
  const graph::NodeId destination = dg.destination();
  const McPlan plan = planMonteCarlo(
      dg, std::span<const graph::NodeId>(&destination, 1),
      std::span<const util::SimTime>(&params.deadline, 1), lossRates,
      latencies, params, samples, ws);
  const std::vector<graph::EdgeId>& members = dg.edges();
  const bool cleanOnTime = ws.mcCleanOnTime[0] != 0;
  int delivered = 0;
  if (plan.keyed) {
    scoreKeyedSamples(
        plan, members, samples, rng, ws,
        [&] {
          return std::uint64_t{
              onTimeUnder(dg, ws.sampledHop, params.deadline, ws)};
        },
        [&](std::uint64_t verdict, int count) {
          delivered += static_cast<int>(verdict) * count;
        });
  } else {
    util::Rng localRng = rng;
    for (int s = 0; s < samples; ++s) {
      localRng.nextBlock(ws.mcDraws.data(), plan.memberCount);
      bool onTime = cleanOnTime;
      if (sampleUnkeyed(ws.mcDraws.data(), plan.memberCount, members, ws)) {
        onTime = onTimeUnder(dg, ws.sampledHop, params.deadline, ws);
        ++ws.work.dijkstraRuns;
      }
      if (onTime) ++delivered;
    }
    rng = localRng;
  }
  return delivered;
}

}  // namespace

// dgcheck: hot
double onTimeProbabilityMC(const graph::DisseminationGraph& dg,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           int samples, util::Rng& rng,
                           DeliveryWorkspace& ws) {
  if (samples <= 0) return 0.0;
  return static_cast<double>(onTimeSamples(dg, lossRates, latencies, params,
                                           samples, rng, ws)) /
         static_cast<double>(samples);
}

double onTimeProbabilityMC(const graph::DisseminationGraph& dg,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           int samples, util::Rng& rng) {
  DeliveryWorkspace ws;
  return onTimeProbabilityMC(dg, lossRates, latencies, params, samples, rng,
                             ws);
}

bool nearLossless(const graph::DisseminationGraph& dg,
                  std::span<const double> lossRates, double lossEpsilon) {
  for (const graph::EdgeId e : dg.edges()) {
    if (lossRates[e] > lossEpsilon) return false;
  }
  return true;
}

double missProbabilityNearLossless(const graph::DisseminationGraph& dg,
                                   std::span<const double> lossRates,
                                   std::span<const util::SimTime> latencies,
                                   const DeliveryModelParams& params,
                                   DeliveryWorkspace& ws) {
  // With near-zero loss, delivery timing is deterministic: the earliest
  // arrival under current latencies either meets the deadline or not.
  // Track predecessors so the residual can be computed along the actual
  // earliest path.
  const graph::Graph& overlay = dg.overlay();
  ws.prepare(overlay);
  const std::size_t nodeCount = overlay.nodeCount();
  std::fill_n(ws.dist.begin(), static_cast<std::ptrdiff_t>(nodeCount),
              util::kNever);
  std::fill_n(ws.via.begin(), static_cast<std::ptrdiff_t>(nodeCount),
              graph::kInvalidEdge);
  ws.heap.clear();
  ws.dist[dg.source()] = 0;
  ws.heap.push(0, dg.source());
  while (!ws.heap.empty()) {
    const auto [d, u] = ws.heap.popMin();
    if (d > ws.dist[u]) continue;
    for (const graph::EdgeId e : dg.outEdges(u)) {
      const util::SimTime w = latencies[e];
      if (w == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      if (d + w < ws.dist[v]) {
        ws.dist[v] = d + w;
        ws.via[v] = e;
        ws.heap.push(d + w, v);
      }
    }
  }
  const util::SimTime at = ws.dist[dg.destination()];
  if (at == util::kNever || at > params.deadline) return 1.0;

  // Residual miss: a packet is only lost if it is dropped (beyond
  // recovery) on *every* usable route; the per-hop residual summed along
  // the single earliest path is therefore a valid upper bound (extra
  // redundancy in the graph only shrinks the truth further).
  double residual = 0.0;
  for (graph::NodeId n = dg.destination(); n != dg.source();) {
    const graph::EdgeId e = ws.via[n];
    const double p = lossRates[e];
    residual += params.recoveryEnabled ? p * p : p;
    n = overlay.edge(e).from;
  }
  return std::min(residual, 1.0);
}

double missProbabilityNearLossless(const graph::DisseminationGraph& dg,
                                   std::span<const double> lossRates,
                                   std::span<const util::SimTime> latencies,
                                   const DeliveryModelParams& params) {
  DeliveryWorkspace ws;
  return missProbabilityNearLossless(dg, lossRates, latencies, params, ws);
}

// ---------------------------------------------------------------------
// Receiver-set (multicast) evaluators.
// ---------------------------------------------------------------------

namespace {

/// Unbounded earliest-arrival run over the dissemination graph with
/// predecessor tracking -- the exact loop missProbabilityNearLossless
/// runs, shared so the group variant finalizes every receiver in one
/// pass. Leaves exact distances in ws.dist and the predecessor edge of
/// each reached node in ws.via.
void groupDistancesUnbounded(const graph::DisseminationGraph& dg,
                             std::span<const util::SimTime> weights,
                             DeliveryWorkspace& ws) {
  const graph::Graph& overlay = dg.overlay();
  ws.prepare(overlay);
  const std::size_t nodeCount = overlay.nodeCount();
  std::fill_n(ws.dist.begin(), static_cast<std::ptrdiff_t>(nodeCount),
              util::kNever);
  std::fill_n(ws.via.begin(), static_cast<std::ptrdiff_t>(nodeCount),
              graph::kInvalidEdge);
  ws.heap.clear();
  ws.dist[dg.source()] = 0;
  ws.heap.push(0, dg.source());
  while (!ws.heap.empty()) {
    const auto [d, u] = ws.heap.popMin();
    if (d > ws.dist[u]) continue;
    for (const graph::EdgeId e : dg.outEdges(u)) {
      const util::SimTime w = weights[e];
      if (w == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      if (d + w < ws.dist[v]) {
        ws.dist[v] = d + w;
        ws.via[v] = e;
        ws.heap.push(d + w, v);
      }
    }
  }
}

}  // namespace

void missGroupNearLossless(const graph::DisseminationGraph& dg,
                           std::span<const graph::NodeId> receivers,
                           std::span<const util::SimTime> deadlines,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           DeliveryWorkspace& ws, std::span<double> missOut,
                           std::span<util::SimTime> arrivalOut) {
  const graph::Graph& overlay = dg.overlay();
  groupDistancesUnbounded(dg, latencies, ws);
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    const util::SimTime at = ws.dist[receivers[r]];
    arrivalOut[r] = at;
    if (at == util::kNever || at > deadlines[r]) {
      missOut[r] = 1.0;
      continue;
    }
    // Residual miss along this receiver's earliest-path predecessor
    // chain, exactly as the unicast near-lossless fast path charges it.
    double residual = 0.0;
    for (graph::NodeId n = receivers[r]; n != dg.source();) {
      const graph::EdgeId e = ws.via[n];
      const double p = lossRates[e];
      residual += params.recoveryEnabled ? p * p : p;
      n = overlay.edge(e).from;
    }
    missOut[r] = std::min(residual, 1.0);
  }
}

void groupCleanArrivals(const graph::DisseminationGraph& dg,
                        std::span<const util::SimTime> latencies,
                        std::span<const graph::NodeId> receivers,
                        DeliveryWorkspace& ws,
                        std::span<util::SimTime> arrivalOut) {
  groupDistancesUnbounded(dg, latencies, ws);
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    arrivalOut[r] = ws.dist[receivers[r]];
  }
}

int groupTransmissionCost(const graph::DisseminationGraph& dg,
                          std::span<const util::SimTime> latencies,
                          const DeliveryWorkspace& ws) {
  const graph::Graph& overlay = dg.overlay();
  int transmissions = 0;
  for (graph::NodeId u = 0; u < overlay.nodeCount(); ++u) {
    if (ws.dist[u] == util::kNever) continue;  // never receives the packet
    // The no-echo rule suppresses the transmission back to the node the
    // first copy arrived from.
    const graph::NodeId from = u == dg.source()
                                   ? graph::kInvalidNode
                                   : overlay.edge(ws.via[u]).from;
    for (const graph::EdgeId e : dg.outEdges(u)) {
      if (latencies[e] == util::kNever) continue;
      if (overlay.edge(e).to == from) continue;
      ++transmissions;
    }
  }
  return transmissions;
}

// dgcheck: hot
void onTimeCountsMCGroup(const graph::DisseminationGraph& dg,
                         std::span<const graph::NodeId> receivers,
                         std::span<const util::SimTime> deadlines,
                         std::span<const double> lossRates,
                         std::span<const util::SimTime> latencies,
                         const DeliveryModelParams& params, int samples,
                         util::Rng& rng, DeliveryWorkspace& ws,
                         std::span<int> onTimeCounts,
                         std::span<int> deliveredHistogram) {
  const std::size_t receiverCount = receivers.size();
  std::fill(onTimeCounts.begin(), onTimeCounts.end(), 0);
  std::fill(deliveredHistogram.begin(), deliveredHistogram.end(), 0);
  if (samples <= 0) return;
  if (receiverCount == 1 && receivers[0] == dg.destination()) {
    // One receiver (a unicast flow): the unicast sample loop draws and
    // decides exactly as the loop below (pinned by test) and costs about a
    // third less per call on small graphs.
    DeliveryModelParams unicast = params;
    unicast.deadline = deadlines[0];
    onTimeCounts[0] = onTimeSamples(dg, lossRates, latencies, unicast,
                                    samples, rng, ws);
    deliveredHistogram[0] = samples - onTimeCounts[0];
    deliveredHistogram[1] = onTimeCounts[0];
    return;
  }
  const McPlan plan = planMonteCarlo(dg, receivers, deadlines, lossRates,
                                     latencies, params, samples, ws);
  const std::vector<graph::EdgeId>& members = dg.edges();

  if (plan.keyed) {
    // Verdict = bitmask of receivers on time. Samples that keep the clean
    // verdict (the vast majority) are only counted here and folded into
    // the per-receiver counts once at the end.
    int cleanSamples = 0;
    scoreKeyedSamples(
        plan, members, samples, rng, ws,  // dgcheck: ok(R6): the one-receiver branch above returns; exactly one callee draws from this rng
        [&] {
          distancesWithin(dg, ws.sampledHop, plan.sampleDeadline, ws);
          std::uint64_t onTime = 0;
          for (std::size_t r = 0; r < receiverCount; ++r) {
            if (ws.dist[receivers[r]] <= deadlines[r])
              onTime |= std::uint64_t{1} << r;
          }
          return onTime;
        },
        [&](std::uint64_t verdict, int count) {
          if (verdict == plan.cleanVerdict) {
            cleanSamples += count;
            return;
          }
          deliveredHistogram[static_cast<std::size_t>(
              std::popcount(verdict))] += count;
          for (; verdict != 0; verdict &= verdict - 1) {
            onTimeCounts[static_cast<std::size_t>(
                std::countr_zero(verdict))] += count;
          }
        });
    deliveredHistogram[static_cast<std::size_t>(
        std::popcount(plan.cleanVerdict))] += cleanSamples;
    for (std::uint64_t bits = plan.cleanVerdict; bits != 0;
         bits &= bits - 1) {
      onTimeCounts[static_cast<std::size_t>(std::countr_zero(bits))] +=
          cleanSamples;
    }
    return;
  }

  // More than 64 member edges or receivers: score each sample directly.
  util::Rng localRng = rng;
  for (int s = 0; s < samples; ++s) {
    int deliveredCount = 0;
    localRng.nextBlock(ws.mcDraws.data(), plan.memberCount);
    if (sampleUnkeyed(ws.mcDraws.data(), plan.memberCount, members, ws)) {
      distancesWithin(dg, ws.sampledHop, plan.sampleDeadline, ws);
      ++ws.work.dijkstraRuns;
      for (std::size_t r = 0; r < receiverCount; ++r) {
        if (ws.dist[receivers[r]] <= deadlines[r]) {
          ++onTimeCounts[r];
          ++deliveredCount;
        }
      }
    } else {
      for (std::size_t r = 0; r < receiverCount; ++r) {
        if (ws.mcCleanOnTime[r] != 0) {
          ++onTimeCounts[r];
          ++deliveredCount;
        }
      }
    }
    ++deliveredHistogram[static_cast<std::size_t>(deliveredCount)];
  }
  rng = localRng;
}

}  // namespace dg::playback
