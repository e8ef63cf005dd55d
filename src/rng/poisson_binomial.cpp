#include "rng/poisson_binomial.h"

#include <algorithm>
#include <cmath>

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

void uniform_choice_marginals_into(std::span<const double> p,
                                   std::span<double> q_out,
                                   ChoiceMarginalsWorkspace& ws) {
  const std::size_t k = p.size();
  std::fill(q_out.begin(), q_out.end(), 0.0);
  if (k == 0) return;

  // Full PMF once, then "deconvolve" task j out to get the leave-one-out
  // PMF of B_j. Deconvolution can be numerically delicate when p[j] is close
  // to 1, so we instead rebuild each leave-one-out PMF directly; O(k^2) per
  // task is fine for the k <= 64 regime this library targets, but an O(k^2)
  // total algorithm exists for larger k.
  ws.rest.reserve(k - 1);
  ws.pmf.resize(k);  // leave-one-out PMF has k entries (k - 1 trials)
  for (std::size_t j = 0; j < k; ++j) {
    const double pj = std::clamp(p[j], 0.0, 1.0);
    if (pj == 0.0) continue;
    ws.rest.clear();
    for (std::size_t i = 0; i < k; ++i) {
      if (i != j) ws.rest.push_back(p[i]);
    }
    poisson_binomial_pmf_into(ws.rest, ws.pmf);
    double expectation = 0.0;  // E[ 1/(1+B_j) ]
    for (std::size_t b = 0; b < ws.pmf.size(); ++b) {
      expectation += ws.pmf[b] / static_cast<double>(1 + b);
    }
    q_out[j] = pj * expectation;
  }
}

}  // namespace antalloc::rng
