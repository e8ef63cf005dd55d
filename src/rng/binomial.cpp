#include "rng/binomial.h"

#include <algorithm>
#include <cmath>

namespace antalloc::rng {
namespace {

// Folded means below this take the inversion walk; BTRD needs n*p >= 10.
constexpr double kBtrdMinMean = 10.0;

// Exact inversion: walks the CDF from 0. O(np) expected steps, so only used
// when the folded mean n*min(p,1-p) is small.
std::int64_t binomial_inversion(Xoshiro256& gen, std::int64_t n, double p) {
  const double q = 1.0 - p;
  // P(X = 0) = q^n, computed in log space to survive large n.
  const double log_q = std::log(q);
  double u = gen.uniform();
  std::int64_t x = 0;
  double pmf = std::exp(static_cast<double>(n) * log_q);
  double cdf = pmf;
  // Recurrence: pmf(x+1) = pmf(x) * (n-x)/(x+1) * p/q.
  while (u > cdf && x < n) {
    pmf *= (static_cast<double>(n - x) / static_cast<double>(x + 1)) * (p / q);
    ++x;
    cdf += pmf;
    if (pmf < 1e-320) break;  // underflow guard: tail mass is negligible
  }
  return x;
}

// BTRD for p <= 1/2 and n*p >= 10, following Hörmann (1993), steps 0-3.
// Most draws return from the triangle (step 1, one uniform); the rest
// sample the hat and accept by the exact pmf ratio f(k)/f(m), either by
// the product recurrence (|k - m| <= 15) or by Stirling's formula with the
// fc correction, after a squeeze on the normal approximation.
std::int64_t binomial_btrd(Xoshiro256& gen, std::int64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const auto m = static_cast<std::int64_t>(std::floor((nd + 1.0) * p));
  const double md = static_cast<double>(m);
  const double r = p / q;
  const double nr = (nd + 1.0) * r;
  const double npq = nd * p * q;
  const double sqrt_npq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * sqrt_npq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;

  for (;;) {
    // Step 1: the triangle, accepted without a test.
    double v = gen.uniform();
    if (v <= u_rv_r) {
      const double u = v / v_r - 0.43;
      return static_cast<std::int64_t>(
          std::floor((2.0 * a / (0.5 - std::abs(u)) + b) * u + c));
    }
    // Step 2: a point (u, v) under the hat outside the triangle.
    double u;
    if (v >= v_r) {
      u = gen.uniform() - 0.5;
    } else {
      u = v / v_r - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = gen.uniform() * v_r;
    }
    // Step 3.0: the candidate k; reject outside [0, n] before the cast.
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (!(kd >= 0.0 && kd <= nd)) continue;
    const auto k = static_cast<std::int64_t>(kd);
    v = v * alpha / (a / (us * us) + b);
    const std::int64_t km = k > m ? k - m : m - k;

    if (km <= 15) {
      // Step 3.1: f(k)/f(m) by the recurrence f(i)/f(i-1) = nr/i - r.
      double f = 1.0;
      if (m < k) {
        for (std::int64_t i = m + 1; i <= k; ++i) {
          f *= nr / static_cast<double>(i) - r;
        }
      } else if (m > k) {
        for (std::int64_t i = k + 1; i <= m; ++i) {
          v *= nr / static_cast<double>(i) - r;
        }
      }
      if (v <= f) return k;
      continue;
    }

    // Step 3.2: squeeze on the log of the normal approximation.
    v = std::log(v);
    const double kmd = static_cast<double>(km);
    const double rho =
        (kmd / npq) * (((kmd / 3.0 + 0.625) * kmd + 1.0 / 6.0) / npq + 0.5);
    const double t = -kmd * kmd / (2.0 * npq);
    if (v < t - rho) return k;
    if (v > t + rho) continue;

    // Step 3.3: the exact log ratio ln f(k) - ln f(m) via Stirling + fc.
    const double nm = nd - md + 1.0;
    const double h = (md + 0.5) * std::log((md + 1.0) / (r * nm)) +
                     stirling_correction(m) + stirling_correction(n - m);
    const double nk = nd - kd + 1.0;
    if (v <= h + (nd + 1.0) * std::log(nm / nk) +
                 (kd + 0.5) * std::log(nk * r / (kd + 1.0)) -
                 stirling_correction(k) - stirling_correction(n - k)) {
      return k;
    }
  }
}

}  // namespace

double stirling_correction(std::int64_t k) {
  // fc(0..9), exact to double precision.
  static constexpr double kTable[10] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
      0.008330563433362871};
  if (k < 10) return kTable[k];
  const double inv = 1.0 / (static_cast<double>(k) + 1.0);
  const double inv2 = inv * inv;
  return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0) * inv2) * inv2) * inv;
}

std::int64_t binomial(Xoshiro256& gen, std::int64_t n, double p) {
  if (n <= 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  if (p == 0.0) return 0;
  if (p == 1.0) return n;

  // Tiny n: summing Bernoulli bits beats any setup cost.
  if (n <= 16) {
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) sum += gen.bernoulli(p) ? 1 : 0;
    return sum;
  }

  // Fold to p <= 1/2: the inversion walk starts at the short side, and
  // BTRD is stated for p <= 1/2.
  const bool folded = p > 0.5;
  const double pf = folded ? 1.0 - p : p;
  const double mean = static_cast<double>(n) * pf;

  const std::int64_t draw = mean < kBtrdMinMean
                                ? binomial_inversion(gen, n, pf)
                                : binomial_btrd(gen, n, pf);
  return folded ? n - draw : draw;
}

}  // namespace antalloc::rng
