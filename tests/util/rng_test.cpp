#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace dg::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntRange) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniformInt(std::uint64_t{10});
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniformInt(std::int64_t{-3}, std::int64_t{3});
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    if (v == -3) sawLo = true;
    if (v == 3) sawHi = true;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 20'000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 50'000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 50'000.0, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0, sq = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, LognormalMedian) {
  Rng rng(23);
  std::vector<double> samples;
  for (int i = 0; i < 10'001; ++i) samples.push_back(
      rng.lognormalMedian(100.0, 1.0));
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(samples[5000], 100.0, 6.0);
  for (const double s : samples) EXPECT_GT(s, 0.0);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 10'000; ++i) ++counts[rng.weightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 10'000.0, 0.75, 0.03);
}

TEST(Rng, ForkStreamsIndependent) {
  Rng parent(31);
  Rng childA = parent.fork();
  Rng childB = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (childA.next() == childB.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// jump(jumpPoly(n)) must land exactly where n next() calls do: short
// distances around the word and degree boundaries of the polynomial, the
// Monte-Carlo lane strides, and random distances, from several seeds.
TEST(RngJump, MatchesSerialStepping) {
  std::vector<std::uint64_t> distances = {0,    1,     2,     63,    64,   255,
                                          256,  257,   6000,  64000, 123457};
  Rng pick(99);
  for (int i = 0; i < 200; ++i) distances.push_back(pick.uniformInt(200000));
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    for (const std::uint64_t n : distances) {
      Rng serial(seed);
      for (std::uint64_t i = 0; i < n; ++i) serial.next();
      Rng jumped(seed);
      jumped.jump(jumpPoly(n));
      ASSERT_EQ(jumped.state(), serial.state())
          << "seed " << seed << " distance " << n;
      EXPECT_EQ(jumped.next(), serial.next());
    }
  }
}

// kRngCharPoly annihilates the state sequence: for every state s,
// T^256 s = sum over i < 256 of p_i T^i s. A typo in the constant fails
// here, not only through the Monte-Carlo suites.
TEST(RngJump, CharacteristicPolynomialAnnihilatesStateSequence) {
  for (const std::uint64_t seed : {3ULL, 77ULL, 123456789ULL}) {
    Rng rng(seed);
    Rng::State sum = {};
    for (std::size_t i = 0; i < 256; ++i) {
      if (((kRngCharPoly[i / 64] >> (i % 64)) & 1) != 0) {
        for (std::size_t w = 0; w < 4; ++w) sum[w] ^= rng.state()[w];
      }
      rng.next();
    }
    EXPECT_EQ(sum, rng.state()) << "seed " << seed;
  }
}

// The reference xoshiro256 jump() and long_jump() are x^(2^128) and
// x^(2^192) mod P: squaring x that often must reproduce their published
// constants.
TEST(RngJump, ReproducesReferenceJumpConstants) {
  JumpPoly poly = {2, 0, 0, 0};  // x
  for (int i = 0; i < 128; ++i) poly = jumpPolyMul(poly, poly);
  EXPECT_EQ(poly, (JumpPoly{0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                            0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL}));
  for (int i = 0; i < 64; ++i) poly = jumpPolyMul(poly, poly);
  EXPECT_EQ(poly, (JumpPoly{0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                            0x77710069854ee241ULL, 0x39109bb02acbe635ULL}));
}

TEST(RngJump, PolynomialArithmetic) {
  static_assert(jumpPoly(0) == JumpPoly{1, 0, 0, 0});
  static_assert(jumpPoly(255) == JumpPoly{0, 0, 0, 1ULL << 63});
  // x^256 = P without its leading term.
  static_assert(jumpPoly(256) == kRngCharPoly);
  // x^a * x^b = x^(a+b).
  for (const auto& [a, b] : {std::pair{5ULL, 7ULL}, {300ULL, 999ULL},
                             {64000ULL, 123457ULL}}) {
    EXPECT_EQ(jumpPolyMul(jumpPoly(a), jumpPoly(b)),
              jumpPoly(a + b));
  }
}

}  // namespace
}  // namespace dg::util
