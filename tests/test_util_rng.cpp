#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "util/fastmath.h"

namespace clockmark::util {
namespace {

TEST(Pcg32, SameSeedSameSequence) {
  Pcg32 a(42, 7);
  Pcg32 b(42, 7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Pcg32, DifferentSeedsDiffer) {
  Pcg32 a(42, 7);
  Pcg32 b(43, 7);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a(42, 7);
  Pcg32 b(42, 8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, BoundedStaysInRange) {
  Pcg32 rng(1);
  for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, 4095u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.bounded(bound), bound);
    }
  }
}

TEST(Pcg32, BoundedCoversRange) {
  Pcg32 rng(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32, UniformInUnitInterval) {
  Pcg32 rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Pcg32, UniformRangeRespectsBounds) {
  Pcg32 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Pcg32, GaussianMoments) {
  Pcg32 rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Pcg32, GaussianScaled) {
  Pcg32 rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Pcg32, BernoulliRate) {
  Pcg32 rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Pcg32, ForkIsIndependentOfParentConsumption) {
  // Forking with the same salt from the same state gives the same child.
  Pcg32 parent1(23, 5);
  Pcg32 parent2(23, 5);
  Pcg32 child1 = parent1.fork(99);
  Pcg32 child2 = parent2.fork(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(child1(), child2());
  }
}

TEST(Pcg32, ForkDifferentSaltsDiffer) {
  Pcg32 parent(23, 5);
  Pcg32 a = parent.fork(1);
  Pcg32 b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(FillGaussian, MatchesSequentialDrawsBitExact) {
  // The batched fill is a reordering of the same arithmetic, not a new
  // generator: every output bit and the final generator state must match
  // scalar gaussian() draws, across batch boundaries (kPairs = 512) and
  // for odd lengths that leave a cached partner behind.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{17}, std::size_t{1024},
                              std::size_t{1025}, std::size_t{5000}}) {
    Pcg32 scalar(123, 9);
    Pcg32 batched(123, 9);
    std::vector<double> expect(n);
    for (auto& v : expect) v = scalar.gaussian(0.25, 1.5);
    std::vector<double> got(n);
    batched.fill_gaussian(got, 0.25, 1.5);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(expect[i], got[i]) << "n=" << n << " i=" << i;
    }
    // Both generators (including the pair cache) must be in the same
    // state afterwards: the continuation sequences coincide.
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(scalar.gaussian(), batched.gaussian()) << "n=" << n;
    }
  }
}

TEST(FillGaussian, ConsumesPendingCachedPartner) {
  // A scalar draw leaves the Box-Muller partner cached; a following fill
  // must emit it first, exactly as continued scalar draws would.
  Pcg32 scalar(77, 3);
  Pcg32 batched(77, 3);
  ASSERT_EQ(scalar.gaussian(), batched.gaussian());
  std::vector<double> expect(33);
  for (auto& v : expect) v = scalar.gaussian(-1.0, 0.5);
  std::vector<double> got(33);
  batched.fill_gaussian(got, -1.0, 0.5);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(expect[i], got[i]) << i;
  }
}

/// A Pcg32 on stream `stream` whose draw number `draw` (0-based, counted
/// from construction) is exactly 0. Output 0 comes from state 0, so walk
/// the LCG s' = M s + inc back from state 0 to the post-construction
/// state, then solve the seed from the constructor's two steps.
Pcg32 generator_with_zero_draw(std::uint64_t stream, std::size_t draw) {
  constexpr std::uint64_t kMult = 6364136223846793005ULL;
  std::uint64_t inv = kMult;  // Newton: each round doubles the good bits
  for (int i = 0; i < 6; ++i) inv *= 2 - kMult * inv;
  const std::uint64_t inc = (stream << 1u) | 1u;
  std::uint64_t state = 0;
  for (std::size_t i = 0; i < draw; ++i) state = inv * (state - inc);
  // Construction: state = inc; state += seed; state = state * M + inc.
  const std::uint64_t seed = inv * (state - inc) - inc;
  return Pcg32(seed, stream);
}

TEST(FillGaussian, ZeroUniformTakesTheRejectionFallback) {
  // A u1 draw of exactly 0 makes the sequential gaussian() reject it and
  // draw again, shifting every later pair by one draw. The jump-ahead
  // walks cannot follow that shift, so the batch must be replayed by
  // the rejection loop and still equal the sequential draws. The zero
  // is placed in the 16-state vector walk (pairs 0, 5, 100), in its
  // scalar remainder (pair 497 of a 500-pair batch) and in a later
  // batch (pair 700), on odd and even lengths.
  for (const std::size_t pair : {0, 5, 100, 497, 700}) {
    for (const std::size_t n : {std::size_t{1001}, std::size_t{1600}}) {
      Pcg32 probe = generator_with_zero_draw(11, 2 * pair);
      for (std::size_t i = 0; i < 2 * pair; ++i) probe();
      ASSERT_EQ(probe(), 0u) << "pair " << pair;

      Pcg32 scalar = generator_with_zero_draw(11, 2 * pair);
      Pcg32 batched = scalar;
      std::vector<double> got(n);
      batched.fill_gaussian(got, 0.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(scalar.gaussian(), got[i])
            << "pair " << pair << " n " << n << " i " << i;
      }
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(scalar.gaussian(), batched.gaussian())
            << "pair " << pair << " n " << n;
      }
      ASSERT_EQ(scalar(), batched());
    }
  }
}

TEST(FastMath, LogMatchesLibmClosely) {
  // fastmath.h promises near-correctly-rounded accuracy over the
  // Box-Muller input domain (0, 1).
  Pcg32 rng(11, 1);
  double worst = 0.0;
  for (int i = 0; i < 200000; ++i) {
    double u = rng.uniform();
    if (u <= 0.0) continue;
    const double got = fast_log(u);
    const double ref = std::log(u);
    worst = std::max(worst, std::abs(got - ref) / std::abs(ref));
  }
  EXPECT_LT(worst, 1e-13);
}

TEST(FastMath, SinCosMatchesLibmClosely) {
  Pcg32 rng(12, 1);
  double worst = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.uniform();
    double s = 0.0;
    double c = 0.0;
    fast_sincos_2pi(u, s, c);
    constexpr double two_pi = 6.283185307179586476925286766559;
    worst = std::max(worst, std::abs(s - std::sin(two_pi * u)));
    worst = std::max(worst, std::abs(c - std::cos(two_pi * u)));
  }
  EXPECT_LT(worst, 1e-14);
}

TEST(Splitmix64, AdvancesAndMixes) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);  // deterministic
}

}  // namespace
}  // namespace clockmark::util
