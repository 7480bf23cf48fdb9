#include "playback/delivery_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>
#include <utility>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define DG_MC_HAVE_AVX2_TARGET 1
#include <immintrin.h>
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
  if (kernel != McKernel::kBlockAvx2) return true;
#if DG_MC_HAVE_AVX2_TARGET
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
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

SampleOutcomeCache::Lookup SampleOutcomeCache::find(std::uint64_t keyLo,
                                                    std::uint64_t keyHi,
                                                    std::uint64_t& verdict) {
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
      pending_ = i;
      return Lookup::kMiss;
    }
    if (slot.keyLo == keyLo && slot.keyHi == keyHi) {
      verdict = slot.verdict;
      return Lookup::kHit;
    }
  }
  return Lookup::kFull;
}

void SampleOutcomeCache::store(std::uint64_t verdict) {
  slots_[pending_].verdict = verdict;
}

}  // namespace detail

void DeliveryWorkspace::prepare(const graph::Graph& overlay) {
  if (sampledHop.size() < overlay.edgeCount())
    sampledHop.resize(overlay.edgeCount());
  if (dist.size() < overlay.nodeCount()) dist.resize(overlay.nodeCount());
  if (via.size() < overlay.nodeCount()) via.resize(overlay.nodeCount());
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

/// Earliest-arrival deadline check shared by the Monte-Carlo sample loop
/// and its clean-sample precomputation: true iff the destination is
/// reachable within the deadline when member edge e delivers after
/// weights[e] (kNever = lost). Dijkstra on the workspace's flat heap; see
/// DaryHeap for why the result is identical to a std::priority_queue run.
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

/// Samples per batched block. Bounded so the draw buffer (block *
/// members * 8 bytes) stays inside L1 even for 64-member graphs.
constexpr int kMcBlockSamples = 32;

/// Portable SoA classify pass: turns a block of raw draws (sample-major,
/// `memberCount` draws per sample) into per-sample 2-bit outcome-pattern
/// keys. Identical classification to the fused loop -- same thresholds,
/// same 53-bit integer comparison -- just decoupled from the RNG
/// advance.
// dgcheck: hot
void buildKeysScalar(const std::uint64_t* draws, std::size_t memberCount,
                     int blockSamples, const std::uint64_t* thrOnTime,
                     const std::uint64_t* thrRecovered,
                     std::uint64_t* keyLo, std::uint64_t* keyHi) {
  for (int b = 0; b < blockSamples; ++b) {
    const std::uint64_t* d =
        draws + static_cast<std::size_t>(b) * memberCount;
    std::uint64_t key[2] = {0, 0};
    for (std::size_t i = 0; i < memberCount; ++i) {
      const std::uint64_t k = d[i] >> 11;
      if (k >= thrOnTime[i]) [[unlikely]] {
        const std::uint64_t code =
            1 + static_cast<std::uint64_t>(k >= thrRecovered[i]);
        key[i >> 5] |= code << (2 * (i & 31));
      }
    }
    keyLo[b] = key[0];
    keyHi[b] = key[1];
  }
}

#if DG_MC_HAVE_AVX2_TARGET
/// AVX2 classify pass: 4 member edges per vector, fully branchless. Both
/// sides of the threshold comparisons are 53-bit integers, so the signed
/// 64-bit compares are exact; per-lane the outcome code is
/// 2 + (k < thrOnTime) + (k < thrRecovered) with the compares as 0/-1
/// masks (0 = on-time, 1 = recovered, 2 = lost), shifted into key
/// position with a variable shift and OR-folded across the block.
// dgcheck: hot
__attribute__((target("avx2"))) void buildKeysAvx2(
    const std::uint64_t* draws, std::size_t memberCount, int blockSamples,
    const std::uint64_t* thrOnTime, const std::uint64_t* thrRecovered,
    std::uint64_t* keyLo, std::uint64_t* keyHi) {
  const __m256i laneShift = _mm256_set_epi64x(6, 4, 2, 0);
  const __m256i two = _mm256_set1_epi64x(2);
  for (int b = 0; b < blockSamples; ++b) {
    const std::uint64_t* d =
        draws + static_cast<std::size_t>(b) * memberCount;
    __m256i accLo = _mm256_setzero_si256();
    __m256i accHi = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= memberCount; i += 4) {
      const __m256i k = _mm256_srli_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i)), 11);
      const __m256i tOn = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(thrOnTime + i));
      const __m256i tRec = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(thrRecovered + i));
      const __m256i onTimeMask = _mm256_cmpgt_epi64(tOn, k);    // k < tOn
      const __m256i recMask = _mm256_cmpgt_epi64(tRec, k);      // k < tRec
      const __m256i code = _mm256_add_epi64(
          two, _mm256_add_epi64(onTimeMask, recMask));
      const __m256i shift = _mm256_add_epi64(
          _mm256_set1_epi64x(2 * static_cast<long long>(i & 31)),
          laneShift);
      const __m256i contrib = _mm256_sllv_epi64(code, shift);
      if (i < 32) {
        accLo = _mm256_or_si256(accLo, contrib);
      } else {
        accHi = _mm256_or_si256(accHi, contrib);
      }
    }
    // Horizontal OR of the four lanes (a lambda would lose the target
    // attribute, so spelled out for both accumulators).
    const __m128i foldedLo = _mm_or_si128(_mm256_castsi256_si128(accLo),
                                          _mm256_extracti128_si256(accLo, 1));
    std::uint64_t kLo =
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(foldedLo)) |
        static_cast<std::uint64_t>(_mm_extract_epi64(foldedLo, 1));
    const __m128i foldedHi = _mm_or_si128(_mm256_castsi256_si128(accHi),
                                          _mm256_extracti128_si256(accHi, 1));
    std::uint64_t kHi =
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(foldedHi)) |
        static_cast<std::uint64_t>(_mm_extract_epi64(foldedHi, 1));
    for (; i < memberCount; ++i) {  // scalar tail (memberCount % 4)
      const std::uint64_t k = d[i] >> 11;
      if (k >= thrOnTime[i]) [[unlikely]] {
        const std::uint64_t code =
            1 + static_cast<std::uint64_t>(k >= thrRecovered[i]);
        (i < 32 ? kLo : kHi) |= code << (2 * (i & 31));
      }
    }
    keyLo[b] = kLo;
    keyHi[b] = kHi;
  }
}
#endif  // DG_MC_HAVE_AVX2_TARGET

/// Kernel dispatch: honor a test override, otherwise pick by measured
/// profitability. The fused loop wins for small member counts (the
/// classify work hides under the serial RNG dependency chain); the
/// branchless AVX2 block pass wins once the per-sample classify is wide
/// enough to amortize the draw-buffer round trip.
detail::McKernel resolveMcKernel(std::size_t memberCount) {
  using detail::McKernel;
  const McKernel forced = detail::g_mcKernelOverride;
  if (forced != McKernel::kAuto) return forced;
#if DG_MC_HAVE_AVX2_TARGET
  static const bool haveAvx2 = __builtin_cpu_supports("avx2") != 0;
  if (haveAvx2 && memberCount >= 16) return McKernel::kBlockAvx2;
#else
  (void)memberCount;
#endif
  return McKernel::kFusedScalar;
}

/// What one Monte-Carlo call derives before its sample loop (see
/// planMonteCarlo). A verdict is the bitmask of receivers reached on time.
struct McPlan {
  std::size_t memberCount = 0;
  /// Sample patterns fit the 128-bit key (<= 64 member edges) and
  /// verdicts fit 64 bits (<= 64 receivers): the keyed, memoized sample
  /// loop applies. Otherwise the unkeyed per-sample fallback runs.
  bool patternMemo = false;
  /// Loosest deadline among the receivers on time in the clean run; a
  /// sample's Dijkstra need not look further (nobody else can be on time).
  util::SimTime sampleDeadline = 0;
  /// Clean-run verdict (patternMemo only).
  std::uint64_t cleanVerdict = 0;
  /// Clean earliest paths' member edges at the even bit of their 2-bit
  /// key position (patternMemo only).
  std::uint64_t cleanPathLo = 0;
  std::uint64_t cleanPathHi = 0;
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
///     paths, those paths are intact and the clean verdict stands. Only
///     samples that slow a marked path down need a memo lookup or a
///     Dijkstra run.
/// With the pattern memo on, the sampled weights are pre-filled with the
/// clean outcome; each memo miss patches the deviating edges in and back
/// out again.
McPlan planMonteCarlo(const graph::DisseminationGraph& dg,
                      std::span<const graph::NodeId> receivers,
                      std::span<const util::SimTime> deadlines,
                      std::span<const double> lossRates,
                      std::span<const util::SimTime> latencies,
                      const DeliveryModelParams& params,
                      DeliveryWorkspace& ws) {
  const graph::Graph& overlay = dg.overlay();
  ws.prepare(overlay);
  const std::vector<graph::EdgeId>& members = dg.edges();
  const std::size_t receiverCount = receivers.size();
  McPlan plan;
  plan.memberCount = members.size();
  plan.patternMemo = plan.memberCount <= 64 && receiverCount <= 64;

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
    if (plan.patternMemo) plan.cleanVerdict |= std::uint64_t{1} << r;
  }

  const std::size_t memberCount = plan.memberCount;
  if (ws.mcThrOnTime.size() < memberCount) {
    ws.mcThrOnTime.resize(memberCount);
    ws.mcThrRecovered.resize(memberCount);
    ws.mcLatency.resize(memberCount);
    ws.mcRecoveredLatency.resize(memberCount);
    ws.mcOnCleanPath.resize(memberCount);
  }
  constexpr double kScale53 = 9007199254740992.0;  // 2^53
  for (std::size_t i = 0; i < memberCount; ++i) {
    const double p = lossRates[members[i]];
    const util::SimTime lat = latencies[members[i]];
    ws.mcThrOnTime[i] =
        static_cast<std::uint64_t>(std::ceil((1.0 - p) * kScale53));
    ws.mcThrRecovered[i] =
        params.recoveryEnabled
            ? static_cast<std::uint64_t>(std::ceil((1.0 - p * p) * kScale53))
            : ws.mcThrOnTime[i];
    ws.mcLatency[i] = lat;
    ws.mcRecoveredLatency[i] = 3 * lat + params.packetInterval;
  }

  std::fill_n(ws.mcOnCleanPath.begin(),
              static_cast<std::ptrdiff_t>(memberCount), char{0});
  for (std::size_t r = 0; r < receiverCount; ++r) {
    if (ws.mcCleanOnTime[r] == 0) continue;
    for (graph::NodeId n = receivers[r]; n != dg.source();) {
      const graph::EdgeId e = ws.via[n];
      const std::size_t i = static_cast<std::size_t>(
          std::lower_bound(members.begin(), members.end(), e) -
          members.begin());
      ws.mcOnCleanPath[i] = 1;
      n = overlay.edge(e).from;
    }
  }
  if (!plan.patternMemo) {
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

/// Verdict of one keyed sample. Collapse each 2-bit code to its even bit
/// (a pair is never 11) and intersect with the clean-path mask: empty
/// means every clean earliest path is intact (covers the all-on-time
/// case as well) and the clean verdict stands. Otherwise the pattern's
/// memoized verdict, or a fresh `evaluate()` over ws.sampledHop with the
/// deviating edges patched in.
template <typename EvaluateFn>
std::uint64_t keyedVerdict(std::uint64_t keyLo, std::uint64_t keyHi,
                           const McPlan& plan,
                           const std::vector<graph::EdgeId>& members,
                           DeliveryWorkspace& ws, EvaluateFn& evaluate) {
  if ((((keyLo | (keyLo >> 1)) & plan.cleanPathLo) |
       ((keyHi | (keyHi >> 1)) & plan.cleanPathHi)) == 0) {
    return plan.cleanVerdict;
  }
  using Lookup = detail::SampleOutcomeCache::Lookup;
  std::uint64_t verdict = 0;
  const Lookup lookup = ws.outcomeCache.find(keyLo, keyHi, verdict);
  if (lookup == Lookup::kHit) return verdict;
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
  patch(keyLo, 0, false);
  patch(keyHi, 32, false);
  verdict = evaluate();
  patch(keyLo, 0, true);
  patch(keyHi, 32, true);
  if (lookup == Lookup::kMiss) ws.outcomeCache.store(verdict);
  return verdict;
}

/// The keyed sample loop both evaluators share (plan.patternMemo only):
/// draws every sample's member outcomes with the dispatched kernel, turns
/// them into the sample's 2-bit outcome-pattern key (0 = on-time,
/// 1 = recovered, 2 = lost per member edge) and passes the sample's
/// verdict to `score`, in sample order. Identical patterns imply
/// identical Dijkstra runs, so verdicts are memoized per pattern for the
/// duration of the call. Every kernel consumes the same draws in the
/// same order: `rng` ends advanced by exactly samples * memberCount draws
/// and every verdict is bit-identical across kernels.
// dgcheck: hot
template <typename EvaluateFn, typename ScoreFn>
void scoreKeyedSamples(const McPlan& plan,
                       const std::vector<graph::EdgeId>& members,
                       int samples, util::Rng& rng, DeliveryWorkspace& ws,
                       EvaluateFn&& evaluate, ScoreFn&& score) {
  const std::size_t memberCount = plan.memberCount;
  ws.outcomeCache.beginEpoch();
  // Draw through a local generator so the four state words live in
  // registers for the whole loop nest (the caller's rng is advanced to
  // the same final state below).
  util::Rng localRng = rng;
  const detail::McKernel kernel = resolveMcKernel(memberCount);
  if (kernel == detail::McKernel::kFusedScalar) {
    // Fused draw-and-classify loop (the thresholds nest, so 1 + the
    // second comparison is the band index). The on-time branch is the
    // overwhelmingly common case -- with baseline loss rates it is taken
    // ~99.99% of the time -- so the key-building work is kept off that
    // path entirely, and the classify work hides under the serial RNG
    // dependency chain.
    const std::size_t lowCount = std::min<std::size_t>(memberCount, 32);
    for (int s = 0; s < samples; ++s) {
      std::uint64_t keyLo = 0;
      std::uint64_t keyHi = 0;
      for (std::size_t i = 0; i < lowCount; ++i) {
        const std::uint64_t k = localRng.next() >> 11;
        if (k >= ws.mcThrOnTime[i]) [[unlikely]] {
          const std::uint64_t code =
              1 + static_cast<std::uint64_t>(k >= ws.mcThrRecovered[i]);
          keyLo |= code << (2 * i);
        }
      }
      for (std::size_t i = 32; i < memberCount; ++i) {
        const std::uint64_t k = localRng.next() >> 11;
        if (k >= ws.mcThrOnTime[i]) [[unlikely]] {
          const std::uint64_t code =
              1 + static_cast<std::uint64_t>(k >= ws.mcThrRecovered[i]);
          keyHi |= code << (2 * (i - 32));
        }
      }
      score(keyedVerdict(keyLo, keyHi, plan, members, ws, evaluate));
    }
  } else {
    // Batched SoA kernels: draw a whole block of samples into the draw
    // buffer (sample-major -- byte-for-byte the order the fused loop
    // consumes), classify the block into per-sample pattern keys, then
    // score the keys in sample order.
    const std::size_t blockDraws =
        static_cast<std::size_t>(kMcBlockSamples) * memberCount;
    if (ws.mcDraws.size() < blockDraws) ws.mcDraws.resize(blockDraws);
    if (ws.mcKeyLo.size() < static_cast<std::size_t>(kMcBlockSamples)) {
      ws.mcKeyLo.resize(static_cast<std::size_t>(kMcBlockSamples));
      ws.mcKeyHi.resize(static_cast<std::size_t>(kMcBlockSamples));
    }
    for (int s0 = 0; s0 < samples; s0 += kMcBlockSamples) {
      const int blockSamples = std::min(kMcBlockSamples, samples - s0);
      localRng.nextBlock(ws.mcDraws.data(),
                         static_cast<std::size_t>(blockSamples) *
                             memberCount);
#if DG_MC_HAVE_AVX2_TARGET
      if (kernel == detail::McKernel::kBlockAvx2) {
        buildKeysAvx2(ws.mcDraws.data(), memberCount, blockSamples,
                      ws.mcThrOnTime.data(), ws.mcThrRecovered.data(),
                      ws.mcKeyLo.data(), ws.mcKeyHi.data());
      } else {
        buildKeysScalar(ws.mcDraws.data(), memberCount, blockSamples,
                        ws.mcThrOnTime.data(), ws.mcThrRecovered.data(),
                        ws.mcKeyLo.data(), ws.mcKeyHi.data());
      }
#else
      buildKeysScalar(ws.mcDraws.data(), memberCount, blockSamples,
                      ws.mcThrOnTime.data(), ws.mcThrRecovered.data(),
                      ws.mcKeyLo.data(), ws.mcKeyHi.data());
#endif
      for (int b = 0; b < blockSamples; ++b) {
        score(keyedVerdict(ws.mcKeyLo[static_cast<std::size_t>(b)],
                           ws.mcKeyHi[static_cast<std::size_t>(b)], plan,
                           members, ws, evaluate));
      }
    }
  }
  rng = localRng;
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

}  // namespace

// dgcheck: hot
double onTimeProbabilityMC(const graph::DisseminationGraph& dg,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           int samples, util::Rng& rng,
                           DeliveryWorkspace& ws) {
  if (samples <= 0) return 0.0;
  const graph::NodeId destination = dg.destination();
  const McPlan plan = planMonteCarlo(
      dg, std::span<const graph::NodeId>(&destination, 1),
      std::span<const util::SimTime>(&params.deadline, 1), lossRates,
      latencies, params, ws);
  const std::vector<graph::EdgeId>& members = dg.edges();
  const bool cleanOnTime = ws.mcCleanOnTime[0] != 0;
  int delivered = 0;
  if (plan.patternMemo) {
    scoreKeyedSamples(
        plan, members, samples, rng, ws,
        [&] {
          return std::uint64_t{
              onTimeUnder(dg, ws.sampledHop, params.deadline, ws)};
        },
        [&](std::uint64_t verdict) { delivered += static_cast<int>(verdict); });
  } else {
    util::Rng localRng = rng;
    for (int s = 0; s < samples; ++s) {
      localRng.nextBlock(ws.mcDraws.data(), plan.memberCount);
      const bool onTime =
          sampleUnkeyed(ws.mcDraws.data(), plan.memberCount, members, ws)
              ? onTimeUnder(dg, ws.sampledHop, params.deadline, ws)
              : cleanOnTime;
      if (onTime) ++delivered;
    }
    rng = localRng;
  }
  return static_cast<double>(delivered) / static_cast<double>(samples);
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
  const McPlan plan = planMonteCarlo(dg, receivers, deadlines, lossRates,
                                     latencies, params, ws);
  const std::vector<graph::EdgeId>& members = dg.edges();

  if (plan.patternMemo) {
    // Verdict = bitmask of receivers on time. Samples that keep the clean
    // verdict (the vast majority) are only counted here and folded into
    // the per-receiver counts once at the end.
    int cleanSamples = 0;
    scoreKeyedSamples(
        plan, members, samples, rng, ws,
        [&] {
          distancesWithin(dg, ws.sampledHop, plan.sampleDeadline, ws);
          std::uint64_t onTime = 0;
          for (std::size_t r = 0; r < receiverCount; ++r) {
            if (ws.dist[receivers[r]] <= deadlines[r])
              onTime |= std::uint64_t{1} << r;
          }
          return onTime;
        },
        [&](std::uint64_t verdict) {
          if (verdict == plan.cleanVerdict) {
            ++cleanSamples;
            return;
          }
          ++deliveredHistogram[static_cast<std::size_t>(
              std::popcount(verdict))];
          for (; verdict != 0; verdict &= verdict - 1) {
            ++onTimeCounts[static_cast<std::size_t>(
                std::countr_zero(verdict))];
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

// ---------------------------------------------------------------------
// Reference implementations: the pre-optimization code, frozen. Do not
// "improve" these -- their entire value is being the unchanged baseline
// the optimized versions are proven bit-identical against.
// ---------------------------------------------------------------------

// dgcheck: cold: frozen reference implementation; exists to be the unoptimized baseline the fast path is proven bit-identical against
double onTimeProbabilityMCReference(const graph::DisseminationGraph& dg,
                                    std::span<const double> lossRates,
                                    std::span<const util::SimTime> latencies,
                                    const DeliveryModelParams& params,
                                    int samples, util::Rng& rng) {
  if (samples <= 0) return 0.0;
  const graph::Graph& overlay = dg.overlay();
  std::vector<util::SimTime> sampled(overlay.edgeCount(), util::kNever);
  std::vector<util::SimTime> dist(overlay.nodeCount());
  int delivered = 0;

  for (int s = 0; s < samples; ++s) {
    for (const graph::EdgeId e : dg.edges()) {
      sampled[e] = sampleHopLatency(lossRates[e], latencies[e], params, rng);  // dgcheck: ok(R6): reference impl; sequential draws are the frozen spec the fast path is proven bit-identical against
    }
    std::fill(dist.begin(), dist.end(), util::kNever);
    using Entry = std::pair<util::SimTime, graph::NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    dist[dg.source()] = 0;
    queue.push({0, dg.source()});
    bool onTime = false;
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > dist[u]) continue;
      if (u == dg.destination()) {
        onTime = d <= params.deadline;
        break;
      }
      if (d > params.deadline) break;
      for (const graph::EdgeId e : dg.outEdges(u)) {
        if (sampled[e] == util::kNever) continue;
        const graph::NodeId v = overlay.edge(e).to;
        const util::SimTime nd = d + sampled[e];
        if (nd < dist[v]) {
          dist[v] = nd;
          queue.push({nd, v});
        }
      }
    }
    if (onTime) ++delivered;
  }
  return static_cast<double>(delivered) / static_cast<double>(samples);
}

// dgcheck: cold: frozen reference implementation; exists to be the unoptimized baseline the fast path is proven bit-identical against
double missProbabilityNearLosslessReference(
    const graph::DisseminationGraph& dg, std::span<const double> lossRates,
    std::span<const util::SimTime> latencies,
    const DeliveryModelParams& params) {
  const graph::Graph& overlay = dg.overlay();
  std::vector<util::SimTime> dist(overlay.nodeCount(), util::kNever);
  std::vector<graph::EdgeId> via(overlay.nodeCount(), graph::kInvalidEdge);
  using Entry = std::pair<util::SimTime, graph::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[dg.source()] = 0;
  queue.push({0, dg.source()});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    for (const graph::EdgeId e : dg.outEdges(u)) {
      const util::SimTime w = latencies[e];
      if (w == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      if (d + w < dist[v]) {
        dist[v] = d + w;
        via[v] = e;
        queue.push({d + w, v});
      }
    }
  }
  const util::SimTime at = dist[dg.destination()];
  if (at == util::kNever || at > params.deadline) return 1.0;

  double residual = 0.0;
  for (graph::NodeId n = dg.destination(); n != dg.source();) {
    const graph::EdgeId e = via[n];
    const double p = lossRates[e];
    residual += params.recoveryEnabled ? p * p : p;
    n = overlay.edge(e).from;
  }
  return std::min(residual, 1.0);
}

}  // namespace dg::playback
