// Deterministic, seedable random number generation.
//
// The whole evaluation pipeline (synthetic traces, Monte-Carlo playback,
// packet-level loss sampling) must be reproducible from a single seed, so
// we use our own small xoshiro256** implementation rather than the
// unspecified distributions of <random>.  All derived draws (uniform,
// bernoulli, exponential, lognormal, ...) are implemented here with fixed
// algorithms so results are identical across standard libraries.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>

namespace dg::util {

/// A polynomial over GF(2) of degree < 256: bit i % 64 of word i / 64 is
/// the coefficient of x^i. Rng::jump() takes the polynomial x^n mod P,
/// where P is the characteristic polynomial of the generator's linear
/// state map T: by Cayley-Hamilton P(T) = 0, so T^n = (x^n mod P)(T).
using JumpPoly = std::array<std::uint64_t, 4>;

/// P without its leading x^256 term.
inline constexpr JumpPoly kRngCharPoly = {
    0x9D116F2BB0F0F001ULL, 0x0280002BCEFD1A5EULL, 0x04B4EDCF26259F85ULL,
    0x0003C03C3F3ECB19ULL};

namespace jump_detail {

constexpr JumpPoly polyXor(const JumpPoly& a, const JumpPoly& b) {
  return {a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]};
}

/// a * x^k for 0 < k < 64, dropping terms of degree >= 256.
constexpr JumpPoly polyShl(const JumpPoly& a, int k) {
  return {a[0] << k, (a[1] << k) | (a[0] >> (64 - k)),
          (a[2] << k) | (a[1] >> (64 - k)),
          (a[3] << k) | (a[2] >> (64 - k))};
}

// x^(256+j) mod P = kRngCharPoly * x^j needs no further reduction for
// j < 4.
static_assert(kRngCharPoly[3] >> 60 == 0);

/// t(x) * x^256 mod P for every 4-bit t.
inline constexpr std::array<JumpPoly, 16> kFold4 = [] {
  std::array<JumpPoly, 16> fold = {};
  for (std::size_t t = 1; t < 16; ++t) {
    for (int j = 0; j < 4; ++j) {
      if (((t >> j) & 1) == 0) continue;
      fold[t] = polyXor(fold[t],
                        j == 0 ? kRngCharPoly : polyShl(kRngCharPoly, j));
    }
  }
  return fold;
}();

/// a * x^k mod P for 0 < k <= 4.
constexpr JumpPoly timesXPow(const JumpPoly& a, int k) {
  return polyXor(polyShl(a, k), kFold4[a[3] >> (64 - k)]);
}

}  // namespace jump_detail

/// a * b mod P, four bits of b at a time.
constexpr JumpPoly jumpPolyMul(const JumpPoly& a, const JumpPoly& b) {
  using jump_detail::polyXor;
  using jump_detail::timesXPow;
  std::array<JumpPoly, 16> multiples = {};  // a * c mod P per 4-bit c
  multiples[1] = a;
  for (std::size_t c = 2; c < 16; ++c) {
    multiples[c] = (c & (c - 1)) == 0
                       ? timesXPow(multiples[c / 2], 1)
                       : polyXor(multiples[c & (c - 1)],
                                 multiples[c & (0 - c)]);
  }
  JumpPoly r = {};
  for (std::size_t nibble = 64; nibble-- > 0;) {
    r = polyXor(timesXPow(r, 4),
                multiples[(b[nibble / 16] >> (4 * (nibble % 16))) & 15]);
  }
  return r;
}

/// x^n mod P: the polynomial that makes Rng::jump() skip n draws.
constexpr JumpPoly jumpPoly(std::uint64_t n) {
  JumpPoly r = {1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
    r = jumpPolyMul(r, r);
    if (((n >> bit) & 1) != 0) r = jump_detail::timesXPow(r, 1);
  }
  return r;
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// algorithm), seeded via splitmix64 so that any 64-bit seed produces a
/// well-mixed initial state.
class Rng {
 public:
  /// The four state words.
  using State = std::array<std::uint64_t, 4>;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 stream to fill the state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Fills out[0..n) with the next n raw 64-bit draws. Produces exactly
  /// the sequence n consecutive next() calls would -- the Monte-Carlo
  /// evaluator's unkeyed fallback relies on this to stay draw-for-draw
  /// identical to the scalar reference -- but keeps the generator state
  /// in locals for the duration of the fill so the compiler can hold it
  /// in registers across the loop.
  void nextBlock(std::uint64_t* out, std::size_t n) {
    std::uint64_t s0 = state_[0];
    std::uint64_t s1 = state_[1];
    std::uint64_t s2 = state_[2];
    std::uint64_t s3 = state_[3];
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rotl(s1 * 5, 7) * 9;
      const std::uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = rotl(s3, 45);
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
  }

  const State& state() const { return state_; }
  void setState(const State& state) { state_ = state; }

  /// Advances the state exactly as n next() calls would, given
  /// poly = jumpPoly(n): T^n s = sum over i of c_i T^i s, accumulated over
  /// 256 state steps whatever n is. This is the arbitrary-distance jump of
  /// Haramoto et al. (2008); the reference xoshiro256 jump() is the case
  /// poly = x^(2^128) mod P.
  // dgcheck: hot
  void jump(const JumpPoly& poly) {
    State acc = {};
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint64_t mask = 0 - ((poly[i / 64] >> (i % 64)) & 1);
      for (std::size_t w = 0; w < 4; ++w) acc[w] ^= state_[w] & mask;
      next();
    }
    state_ = acc;
  }

  /// Uniform double in [0, 1): uses the top 53 bits.
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Uses rejection to avoid
  /// modulo bias.
  std::uint64_t uniformInt(std::uint64_t n) {
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    uniformInt(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with the given mean (= 1/rate).
  double exponential(double mean) {
    // 1 - uniform() is in (0, 1], keeping log() finite.
    return -mean * std::log(1.0 - uniform());
  }

  /// Standard normal via Box–Muller (one value per call; simple and
  /// deterministic, throughput is not a concern here).
  double normal() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Lognormal parameterised by the *median* and the sigma of the
  /// underlying normal; convenient for heavy-tailed event durations.
  double lognormalMedian(double median, double sigma) {
    return median * std::exp(sigma * normal());
  }

  /// Pareto (type I) with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha) {
    return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
  }

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Weights need not be normalised; all must be >= 0 with positive sum.
  template <typename Container>
  std::size_t weightedIndex(const Container& weights) {
    double total = 0;
    for (const double w : weights) total += w;
    double x = uniform() * total;
    std::size_t i = 0;
    const std::size_t n = weights.size();
    for (const double w : weights) {
      if (x < w || i + 1 == n) return i;
      x -= w;
      ++i;
    }
    return n - 1;
  }

  /// Derives an independent child generator; used to give each link /
  /// flow / experiment its own stream from one master seed.
  Rng fork() { return Rng(next() ^ 0xA3EC647659359ACDULL); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  State state_ = {};
};

}  // namespace dg::util
