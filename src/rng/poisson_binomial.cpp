#include "rng/poisson_binomial.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace antalloc::rng {

void poisson_binomial_pmf_into(std::span<const double> p,
                               std::span<double> pmf_out) {
  std::fill(pmf_out.begin(), pmf_out.end(), 0.0);
  pmf_out[0] = 1.0;
  std::size_t support = 0;  // highest index with non-zero mass so far
  for (const double pi : p) {
    const double q = std::clamp(pi, 0.0, 1.0);
    ++support;
    // In-place convolution with Bernoulli(q), descending to avoid aliasing.
    for (std::size_t c = support; c > 0; --c) {
      pmf_out[c] = pmf_out[c] * (1.0 - q) + pmf_out[c - 1] * q;
    }
    pmf_out[0] *= (1.0 - q);
  }
}

std::vector<double> poisson_binomial_pmf(std::span<const double> p) {
  std::vector<double> pmf(p.size() + 1, 0.0);
  poisson_binomial_pmf_into(p, pmf);
  return pmf;
}

namespace {

// Lanes come in blocks of 8 PMFs, one AVX-512 vector, two AVX2 ones or four
// SSE2 ones wide. A block's PMFs are stored row by row, pmf[c][lane].
constexpr std::size_t kBlock = 8;

// The PMFs of one block of lanes, rows 0..m (see marginals_body): lane l of
// the block leaves out uncertain task `first` + l, if there is one. `pmf`
// holds (m + 1) rows of kBlock. Writes E[1 / (1 + B)] per lane into `sum`,
// with `divisor` holding each lane's 1 + shift.
[[gnu::always_inline]] inline void run_block(const double* __restrict step,
                                             std::size_t m, std::size_t first,
                                             double* __restrict pmf,
                                             const double* __restrict divisor,
                                             double* __restrict sum) {
  for (std::size_t l = 0; l < kBlock; ++l) pmf[l] = 1.0;
  for (std::size_t t = 0; t < m; ++t) {
    for (std::size_t l = 0; l < kBlock; ++l) pmf[(t + 1) * kBlock + l] = 0.0;
    double q[kBlock];
    double keep[kBlock];  // 1 - q
    for (std::size_t l = 0; l < kBlock; ++l) {
      q[l] = first + l == t ? 0.0 : step[t];  // the lane's own task
      keep[l] = 1.0 - q[l];
    }
    // Descending, as in poisson_binomial_pmf_into: row c reads the row
    // below before this step overwrites it.
    for (std::size_t c = t + 1; c > 0; --c) {
      double* row = pmf + c * kBlock;
      const double* below = row - kBlock;
      for (std::size_t l = 0; l < kBlock; ++l) {
        row[l] = row[l] * keep[l] + below[l] * q[l];
      }
    }
    for (std::size_t l = 0; l < kBlock; ++l) pmf[l] *= keep[l];
  }
  double s[kBlock] = {};
  double d[kBlock];
  for (std::size_t l = 0; l < kBlock; ++l) d[l] = divisor[l];
  for (std::size_t c = 0; c <= m; ++c) {
    for (std::size_t l = 0; l < kBlock; ++l) {
      s[l] += pmf[c * kBlock + l] / d[l];
      d[l] += 1.0;
    }
  }
  for (std::size_t l = 0; l < kBlock; ++l) sum[l] = s[l];
}

// uniform_choice_marginals_into for every k (see the header for why it
// returns the textbook bits). Lane l < m holds the PMF of the uncertain
// tasks other than uncertain[l]; lane m, the PMF of all m of them, is the
// one every certain-lack task reads, and runs only if there is one. Each
// lane runs the recurrence of poisson_binomial_pmf_into on the same
// operands in the same order, and rows past a lane's support stay +0. Row
// c of lane l is b = shift + c, where the shift counts the certain-lack
// tasks other than the lane's own. Inlined into each target wrapper below,
// so the compiler vectorizes the lane loops once per ISA.
[[gnu::always_inline]] inline void marginals_body(
    std::span<const double> p, std::span<double> q_out,
    ChoiceMarginalsWorkspace& ws) {
  const std::size_t k = p.size();
  if (k == 0) return;
  // Worst case m = k, so later calls at this k never allocate.
  const std::size_t widest = (k + kBlock) / kBlock * kBlock;
  if (ws.pmf.size() < (k + 1) * kBlock) {
    ws.uncertain.resize(k);
    ws.pmf.resize((k + 1) * kBlock);
    ws.lane.resize(3 * widest);
  }
  double* __restrict step = ws.lane.data();  // the uncertain tasks' p
  double* __restrict divisor = step + widest;
  double* __restrict sum = divisor + widest;

  std::size_t* __restrict uncertain = ws.uncertain.data();
  std::size_t m = 0;        // uncertain tasks
  std::size_t lacking = 0;  // certain-lack tasks (clamped p == 1)
  for (std::size_t j = 0; j < k; ++j) {
    // The clamp of p is 0 iff p <= 0 and 1 iff p >= 1, and leaves every
    // other p, NaN included, as it is. Branch-free: which tasks are
    // certain is a coin flip per call.
    const bool zero = p[j] <= 0.0;
    const bool one = p[j] >= 1.0;
    uncertain[m] = j;
    step[m] = p[j];
    m += static_cast<std::size_t>(!(zero | one));
    lacking += static_cast<std::size_t>(one);
  }

  const std::size_t lanes = m + static_cast<std::size_t>(lacking > 0);
  for (std::size_t l = 0; l < (lanes + kBlock - 1) / kBlock * kBlock; ++l) {
    divisor[l] = static_cast<double>(1 + lacking);
  }
  // Lane m's reader is itself one of the certain-lack tasks.
  divisor[m] -= static_cast<double>(lacking > 0);
  for (std::size_t first = 0; first < lanes; first += kBlock) {
    run_block(step, m, first, ws.pmf.data(), divisor + first, sum + first);
  }

  // A certain-lack task (p >= 1) has q = 1 · sum[m], which is sum[m], and
  // every other task +0 until the uncertain ones are written: a masked
  // copy of the bits.
  const auto lack_bits = std::bit_cast<std::uint64_t>(sum[m]);
  for (std::size_t j = 0; j < k; ++j) {
    const auto mask = 0 - static_cast<std::uint64_t>(p[j] >= 1.0);
    q_out[j] = std::bit_cast<double>(lack_bits & mask);
  }
  for (std::size_t l = 0; l < m; ++l) {
    q_out[uncertain[l]] = step[l] * sum[l];
  }
}

}  // namespace

void choice_marginals_base(std::span<const double> p, std::span<double> q_out,
                           ChoiceMarginalsWorkspace& ws) {
  marginals_body(p, q_out, ws);
}

#if defined(__x86_64__) || defined(_M_X64)

[[gnu::target("arch=x86-64-v4")]] void choice_marginals_v4(
    std::span<const double> p, std::span<double> q_out,
    ChoiceMarginalsWorkspace& ws) {
  marginals_body(p, q_out, ws);
}

[[gnu::target("arch=x86-64-v3")]] void choice_marginals_v3(
    std::span<const double> p, std::span<double> q_out,
    ChoiceMarginalsWorkspace& ws) {
  marginals_body(p, q_out, ws);
}

#endif

}  // namespace antalloc::rng
