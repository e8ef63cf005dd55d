#include "rng/multinomial.h"

#include <algorithm>
#include <numeric>

#include "rng/binomial.h"

namespace antalloc::rng {
namespace {

// Core routine: conditional binomial chain over an explicit total mass.
// When `exhaustive` is true the listed outcomes cover all probability mass
// and any numerically-leftover count is folded into the last bin; when false
// (the `_rest` variant) the leftover stays unassigned for the caller.
// Writes into `counts` (size probs.size()) and returns the unassigned count.
std::int64_t multinomial_with_total_into(Xoshiro256& gen, std::int64_t n,
                                         std::span<const double> probs,
                                         double total_mass, bool exhaustive,
                                         std::span<std::int64_t> counts) {
  std::fill(counts.begin(), counts.end(), std::int64_t{0});
  std::int64_t remaining = n;
  double mass = total_mass;
  for (std::size_t i = 0; i < probs.size() && remaining > 0; ++i) {
    const double p = probs[i];
    if (p <= 0.0) continue;
    // Conditional probability of outcome i among the not-yet-assigned mass.
    const double cond = mass > 0.0 ? std::min(1.0, p / mass) : 1.0;
    const std::int64_t c = binomial(gen, remaining, cond);
    counts[i] = c;
    remaining -= c;
    mass -= p;
    if (mass <= 0.0) {
      // Numerical exhaustion: dump any stragglers into the last positive bin.
      counts[i] += remaining;
      remaining = 0;
    }
  }
  if (exhaustive && remaining > 0 && !counts.empty()) {
    counts.back() += remaining;
    remaining = 0;
  }
  return remaining;
}

}  // namespace

std::vector<std::int64_t> multinomial(Xoshiro256& gen, std::int64_t n,
                                      std::span<const double> probs) {
  const double total = std::accumulate(probs.begin(), probs.end(), 0.0);
  if (total <= 0.0) {
    // Degenerate: no positive outcome; put everything in bin 0 if it exists.
    std::vector<std::int64_t> counts(probs.size(), 0);
    if (!counts.empty()) counts[0] = n;
    return counts;
  }
  std::vector<std::int64_t> counts(probs.size(), 0);
  multinomial_with_total_into(gen, n, probs, total, /*exhaustive=*/true,
                              counts);
  return counts;
}

std::int64_t multinomial_rest_into(Xoshiro256& gen, std::int64_t n,
                                   std::span<const double> probs,
                                   std::span<std::int64_t> counts) {
  return multinomial_with_total_into(gen, n, probs, 1.0, /*exhaustive=*/false,
                                     counts);
}

}  // namespace antalloc::rng
