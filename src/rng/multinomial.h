// Exact Multinomial(n, p[0..k-1]) sampling via sequential conditional
// binomials. Used to distribute a class of i.i.d. ants over their possible
// decisions (join task j / stay idle / ...) in one draw.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/xoshiro.h"

namespace antalloc::rng {

// Draws counts c[i] with sum(c) == n and c ~ Multinomial(n, probs / S) where
// S = sum(probs), normalized; `probs` must be non-negative and the result
// has size probs.size().
std::vector<std::int64_t> multinomial(Xoshiro256& gen, std::int64_t n,
                                      std::span<const double> probs);

// Multinomial with a rest: `probs` are NOT normalized (S <= 1 required up to
// rounding). Writes the per-outcome counts into `counts` (size probs.size())
// and returns the leftover count, the ants that took none of the listed
// outcomes. Allocation-free.
std::int64_t multinomial_rest_into(Xoshiro256& gen, std::int64_t n,
                                   std::span<const double> probs,
                                   std::span<std::int64_t> counts);

}  // namespace antalloc::rng
