// Tests for rng::BulkSampler, the randomness source of the batched agent
// fast path. Two properties carry the whole construction:
//  * the COUNT stream is a plain Xoshiro256 seeded with count_seed, so its
//    binomial / multinomial draws are bit-identical to the scalar helpers on
//    a generator with the same seed — this is what aligns the batched agent
//    engine with the aggregate kernels;
//  * the SELECTION stream's partial Fisher-Yates is exchangeable: every
//    size-c subset of a bucket is equally likely, so (count, selection) has
//    exactly the joint law of per-ant i.i.d. coins.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "rng/binomial.h"
#include "rng/bulk_sampler.h"
#include "rng/multinomial.h"
#include "rng/poisson_binomial.h"
#include "rng/xoshiro.h"

namespace antalloc::rng {
namespace {

TEST(BulkSampler, CountStreamMatchesScalarBinomial) {
  // Cover every regime of rng::binomial (bit-sum, CDF inversion, stdlib
  // delegation) plus the degenerate edges, drawn in sequence so stream
  // positions must line up draw for draw.
  BulkSampler bulk(123, 456);
  Xoshiro256 ref(123);
  const struct { std::int64_t n; double p; } cases[] = {
      {32, 0.25},        // tiny n: direct bit-sum
      {1000, 0.001},     // small mean: CDF inversion
      {100'000, 0.4},    // large mean: stdlib sampler
      {0, 0.5},          // n = 0
      {5000, 0.0},       // p = 0
      {5000, 1.0},       // p = 1
      {700, 0.97},       // folded small mean
  };
  for (const auto& c : cases) {
    EXPECT_EQ(bulk.binomial(c.n, c.p), binomial(ref, c.n, c.p))
        << "n=" << c.n << " p=" << c.p;
  }
}

TEST(BulkSampler, MultinomialRestMatchesFreeFunction) {
  BulkSampler bulk(7, 9);
  Xoshiro256 ref(7);
  const std::vector<double> probs{0.2, 0.1, 0.3};
  std::vector<std::int64_t> counts(probs.size(), -1);
  const std::int64_t rest = bulk.multinomial_rest(10'000, probs, counts);
  std::vector<std::int64_t> expected(probs.size(), -1);
  const std::int64_t expected_rest =
      multinomial_rest_into(ref, 10'000, probs, expected);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(counts[i], expected[i]) << "bin " << i;
  }
  EXPECT_EQ(rest, expected_rest);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), rest), 10'000);
}

TEST(BulkSampler, JoinMarginalsMatchExactMarginals) {
  BulkSampler bulk(1, 2);
  const std::vector<double> p{0.3, 0.0, 0.7, 0.25};
  std::vector<double> q(p.size(), 0.0);
  bulk.join_marginals(p, q);
  std::vector<double> expected(p.size(), -1.0);
  ChoiceMarginalsWorkspace fresh;
  uniform_choice_marginals_into(p, expected, fresh);
  for (std::size_t j = 0; j < q.size(); ++j) {
    EXPECT_DOUBLE_EQ(q[j], expected[j]) << "task " << j;
  }
}

TEST(BulkSampler, SelectToSuffixBoundaryCounts) {
  BulkSampler bulk(3, 4);
  std::vector<std::int32_t> items(6);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<std::int32_t> before = items;

  bulk.select_to_suffix(std::span<std::int32_t>(items), 0);
  EXPECT_EQ(items, before);  // count = 0: untouched

  bulk.select_to_suffix(std::span<std::int32_t>(items),
                        static_cast<std::int64_t>(items.size()));
  std::vector<std::int32_t> sorted = items;  // count = m: a permutation
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, before);
}

TEST(BulkSampler, SelectToSuffixIsExchangeable) {
  // m = 8 elements, c = 3 selected per trial. Exchangeability means the
  // selected subset is uniform over all C(8,3) = 56 subsets. Two checks:
  // the per-element marginal (must be c/m each) and a chi-square over the
  // full subset distribution.
  constexpr std::size_t kM = 8;
  constexpr std::int64_t kC = 3;
  constexpr int kTrials = 56'000;
  BulkSampler bulk(11, 13);

  std::array<std::int64_t, kM> element_hits{};
  std::array<std::int64_t, 256> subset_hits{};
  for (int trial = 0; trial < kTrials; ++trial) {
    std::array<std::int32_t, kM> items{};
    std::iota(items.begin(), items.end(), 0);
    bulk.select_to_suffix(std::span<std::int32_t>(items), kC);
    std::uint32_t subset = 0;
    for (std::size_t i = kM - kC; i < kM; ++i) {
      ++element_hits[static_cast<std::size_t>(items[i])];
      subset |= 1u << items[i];
    }
    ++subset_hits[subset];
  }

  // Marginals: each element is selected Binomial(trials, 3/8); 4.5 sigma.
  const double marginal = static_cast<double>(kC) / kM;
  const double se =
      std::sqrt(marginal * (1.0 - marginal) / kTrials);
  for (std::size_t e = 0; e < kM; ++e) {
    const double freq = static_cast<double>(element_hits[e]) / kTrials;
    EXPECT_NEAR(freq, marginal, 4.5 * se) << "element " << e;
  }

  // Joint: chi-square over the 56 subsets, expected kTrials/56 = 1000 each.
  // df = 55, mean 55, sd ~10.5; 150 is ~9 sigma — it never trips on a
  // correct sampler but any systematic subset bias blows far past it.
  double chi2 = 0.0;
  int populated = 0;
  const double expected = static_cast<double>(kTrials) / 56.0;
  for (std::size_t mask = 0; mask < subset_hits.size(); ++mask) {
    if (std::popcount(mask) != kC) {
      EXPECT_EQ(subset_hits[mask], 0) << "non-3-subset mask " << mask;
      continue;
    }
    ++populated;
    const double diff = static_cast<double>(subset_hits[mask]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_EQ(populated, 56);
  EXPECT_LT(chi2, 150.0);
}

}  // namespace
}  // namespace antalloc::rng
