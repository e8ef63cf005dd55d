// Unit and statistical tests for the RNG substrate: splitmix/xoshiro
// determinism and distributional checks for the binomial, multinomial and
// Poisson-binomial samplers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "rng/binomial.h"
#include "rng/multinomial.h"
#include "rng/poisson_binomial.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"

namespace antalloc::rng {
namespace {

TEST(SplitMix, IsDeterministic) {
  std::uint64_t a = 42;
  std::uint64_t b = 42;
  EXPECT_EQ(splitmix64_next(a), splitmix64_next(b));
  EXPECT_EQ(a, b);
}

TEST(SplitMix, MixChangesValue) {
  EXPECT_NE(splitmix64_mix(1), splitmix64_mix(2));
  EXPECT_NE(splitmix64_mix(0), 0u);
}

TEST(SplitMix, HashWordsOrderSensitive) {
  EXPECT_NE(hash_words(1, 2, 3), hash_words(3, 2, 1));
  EXPECT_NE(hash_words(1, 2, 3, 4), hash_words(1, 2, 4, 3));
}

TEST(SplitMix, HashCombineEqualsKeyTermThenCombine) {
  // hash_combine's formula written out in one expression: the split form
  // must reproduce it bit for bit.
  const auto reference = [](std::uint64_t a, std::uint64_t b) {
    return splitmix64_mix(a ^ (0x9e3779b97f4a7c15ull + (b << 6) + (b >> 2) +
                               splitmix64_mix(b)));
  };
  std::uint64_t sm = 5;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t a = splitmix64_next(sm);
    const std::uint64_t b = i < 100 ? static_cast<std::uint64_t>(i)
                                    : splitmix64_next(sm);
    ASSERT_EQ(hash_combine(a, b), reference(a, b)) << a << " " << b;
    ASSERT_EQ(hash_combine_term(a, hash_key_term(b)), hash_combine(a, b));
  }
}

TEST(Xoshiro, FirstOutputEqualsExpandedGenerator) {
  std::uint64_t sm = 9;
  for (int i = 0; i < 100'000; ++i) {
    // 0, 2^64 - 1 and 2^64 - 2 first, then well-mixed seeds.
    const std::uint64_t seed =
        i < 3 ? std::uint64_t{0} - static_cast<std::uint64_t>(i)
              : splitmix64_next(sm);
    ASSERT_EQ(Xoshiro256::first_output(seed), Xoshiro256(seed)())
        << "seed " << seed;
  }
  static_assert(Xoshiro256::first_output(12345) == Xoshiro256(12345)());
}

// lack_threshold turns `m * 2^-53 < p` (what uniform() < p compares, with m
// the top 53 bits of an output) into an integer compare. Pins the identity
// for random m and every edge of p.
TEST(Xoshiro, LackThresholdMatchesUniformCompare) {
  const double one_minus_ulp = std::nextafter(1.0, 0.0);
  std::vector<double> ps = {0.0,
                            -0.0,
                            0x1p-53,
                            std::nextafter(0x1p-53, 0.0),
                            std::nextafter(0x1p-53, 1.0),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            0.25,
                            0.5,
                            1.0 / 3.0,
                            one_minus_ulp,
                            1.0,
                            std::nextafter(1.0, 2.0),
                            1.5,
                            1e300,
                            std::numeric_limits<double>::infinity(),
                            -0.5,
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  Xoshiro256 gen(77);
  for (int i = 0; i < 200; ++i) ps.push_back(gen.uniform());
  EXPECT_EQ(lack_threshold(0.0), 0u);
  EXPECT_EQ(lack_threshold(-0.5), 0u);
  EXPECT_EQ(lack_threshold(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(lack_threshold(0x1p-53), 1u);
  EXPECT_EQ(lack_threshold(one_minus_ulp), (std::uint64_t{1} << 53) - 1);
  EXPECT_EQ(lack_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(lack_threshold(1.5), std::uint64_t{1} << 53);

  constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
  for (const double p : ps) {
    const std::uint64_t below = lack_threshold(p);
    // The m right at and around the threshold, the extremes, then random m.
    std::vector<std::uint64_t> ms = {0, 1, kTop - 1, kTop};
    for (const std::uint64_t d : {std::uint64_t{0}, std::uint64_t{1},
                                  std::uint64_t{2}}) {
      if (below >= d && below - d <= kTop) ms.push_back(below - d);
      if (below + d <= kTop) ms.push_back(below + d);
    }
    for (int r = 0; r < 2'000; ++r) ms.push_back(gen() >> 11);
    for (const std::uint64_t m : ms) {
      ASSERT_EQ(m < below, static_cast<double>(m) * 0x1p-53 < p)
          << "p=" << p << " m=" << m;
    }
  }
}

TEST(Xoshiro, SameSeedSameStream) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(7);
  Xoshiro256 b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 gen(11);
  double sum = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = gen.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Xoshiro, UniformBelowRespectsBound) {
  Xoshiro256 gen(13);
  std::vector<int> counts(7, 0);
  constexpr int kDraws = 70'000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = gen.uniform_below(7);
    ASSERT_LT(v, 7u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / 7.0, 5.0 * std::sqrt(kDraws / 7.0));
  }
}

TEST(Xoshiro, StreamForIsReproducible) {
  auto a = stream_for(1, 2, 3);
  auto b = stream_for(1, 2, 3);
  EXPECT_EQ(a(), b());
  auto c = stream_for(1, 2, 4);
  EXPECT_NE(stream_for(1, 2, 3)(), c());
}

TEST(Binomial, EdgeCases) {
  Xoshiro256 gen(17);
  EXPECT_EQ(binomial(gen, 0, 0.5), 0);
  EXPECT_EQ(binomial(gen, 100, 0.0), 0);
  EXPECT_EQ(binomial(gen, 100, 1.0), 100);
  EXPECT_EQ(binomial(gen, -5, 0.5), 0);
  EXPECT_EQ(binomial(gen, 100, -0.2), 0);  // clamped
  EXPECT_EQ(binomial(gen, 100, 1.5), 100);  // clamped
}

TEST(Binomial, InRange) {
  Xoshiro256 gen(19);
  for (int i = 0; i < 1000; ++i) {
    const auto x = binomial(gen, 50, 0.3);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, 50);
  }
}

struct BinomialCase {
  std::int64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Xoshiro256 gen(static_cast<std::uint64_t>(n) * 1000003 +
                 static_cast<std::uint64_t>(p * 1e6));
  constexpr int kDraws = 20'000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const auto x = static_cast<double>(binomial(gen, n, p));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sum2 / kDraws - mean * mean;
  const double true_mean = static_cast<double>(n) * p;
  const double true_var = static_cast<double>(n) * p * (1.0 - p);
  // 6-sigma tolerance on the sample mean; 10% + slack on the variance.
  EXPECT_NEAR(mean, true_mean, 6.0 * std::sqrt(true_var / kDraws) + 1e-9);
  EXPECT_NEAR(var, true_var, 0.1 * true_var + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialMoments,
    ::testing::Values(BinomialCase{8, 0.5}, BinomialCase{30, 0.1},
                      BinomialCase{100, 0.02}, BinomialCase{100, 0.98},
                      BinomialCase{10'000, 0.001}, BinomialCase{10'000, 0.4},
                      BinomialCase{1'000'000, 0.25},
                      BinomialCase{1'000'000, 0.75},
                      BinomialCase{123'456, 1e-5}));

TEST(Multinomial, CountsSumToN) {
  Xoshiro256 gen(23);
  const std::vector<double> probs{0.2, 0.3, 0.5};
  for (int i = 0; i < 100; ++i) {
    const auto counts = multinomial(gen, 1000, probs);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
              1000);
  }
}

TEST(Multinomial, UnnormalizedInputIsNormalized) {
  Xoshiro256 gen(29);
  const std::vector<double> probs{2.0, 3.0, 5.0};  // sums to 10
  double first_bin = 0.0;
  constexpr int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const auto counts = multinomial(gen, 100, probs);
    first_bin += static_cast<double>(counts[0]);
  }
  EXPECT_NEAR(first_bin / kDraws, 20.0, 1.0);
}

TEST(Multinomial, RestBinCollectsLeftover) {
  Xoshiro256 gen(31);
  const std::vector<double> probs{0.1, 0.2};  // 0.7 leftover
  double rest = 0.0;
  constexpr int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const auto counts = multinomial_rest(gen, 100, probs);
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
              100);
    rest += static_cast<double>(counts[2]);
  }
  EXPECT_NEAR(rest / kDraws, 70.0, 1.5);
}

TEST(Multinomial, ZeroMassGoesToFirstBin) {
  Xoshiro256 gen(37);
  const std::vector<double> probs{0.0, 0.0};
  const auto counts = multinomial(gen, 10, probs);
  EXPECT_EQ(counts[0], 10);
  EXPECT_EQ(counts[1], 0);
}

TEST(PoissonBinomial, MatchesBinomialForEqualProbs) {
  const std::vector<double> p(10, 0.3);
  const auto pmf = poisson_binomial_pmf(p);
  ASSERT_EQ(pmf.size(), 11u);
  // Compare a few entries with the binomial pmf.
  double total = 0.0;
  for (const double mass : pmf) total += mass;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // P(X = 0) = 0.7^10.
  EXPECT_NEAR(pmf[0], std::pow(0.7, 10), 1e-12);
  // P(X = 10) = 0.3^10.
  EXPECT_NEAR(pmf[10], std::pow(0.3, 10), 1e-12);
}

TEST(PoissonBinomial, HeterogeneousProbabilities) {
  const std::vector<double> p{0.1, 0.9};
  const auto pmf = poisson_binomial_pmf(p);
  ASSERT_EQ(pmf.size(), 3u);
  EXPECT_NEAR(pmf[0], 0.9 * 0.1, 1e-12);
  EXPECT_NEAR(pmf[1], 0.1 * 0.1 + 0.9 * 0.9, 1e-12);
  EXPECT_NEAR(pmf[2], 0.1 * 0.9, 1e-12);
}

TEST(UniformChoiceMarginals, SingleTask) {
  const std::vector<double> p{0.4};
  const auto q = uniform_choice_marginals(p);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_NEAR(q[0], 0.4, 1e-12);  // joins iff the event fires
}

TEST(UniformChoiceMarginals, TwoSymmetricTasks) {
  // p = 0.5 each: P(join 0) = 0.5*(P(other off)*1 + P(other on)*1/2)
  //             = 0.5*(0.5 + 0.25) = 0.375.
  const std::vector<double> p{0.5, 0.5};
  const auto q = uniform_choice_marginals(p);
  EXPECT_NEAR(q[0], 0.375, 1e-12);
  EXPECT_NEAR(q[1], 0.375, 1e-12);
}

TEST(UniformChoiceMarginals, SumIsJoinProbability) {
  // Sum of marginals = P(at least one event fires).
  const std::vector<double> p{0.2, 0.7, 0.4};
  const auto q = uniform_choice_marginals(p);
  const double sum = std::accumulate(q.begin(), q.end(), 0.0);
  const double p_any = 1.0 - (0.8 * 0.3 * 0.6);
  EXPECT_NEAR(sum, p_any, 1e-12);
}

TEST(UniformChoiceMarginals, MonteCarloAgreement) {
  const std::vector<double> p{0.3, 0.6, 0.1, 0.8};
  const auto q = uniform_choice_marginals(p);
  Xoshiro256 gen(41);
  std::vector<double> empirical(4, 0.0);
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    std::vector<int> fired;
    for (std::size_t j = 0; j < 4; ++j) {
      if (gen.bernoulli(p[j])) fired.push_back(static_cast<int>(j));
    }
    if (!fired.empty()) {
      const auto pick = gen.uniform_below(fired.size());
      empirical[static_cast<std::size_t>(fired[pick])] += 1.0;
    }
  }
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(empirical[j] / kDraws, q[j], 0.005) << "task " << j;
  }
}

}  // namespace
}  // namespace antalloc::rng
