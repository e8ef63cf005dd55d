// Exact Binomial(n, p) sampling for aggregate simulation, where n is the
// number of ants in some behavioural class (possibly millions) and p a
// per-ant decision probability.
//
// Every path draws only from Xoshiro256, so the stream is the repo's own:
// the same seed gives the same counts on every platform and standard
// library. Three exact regimes, split purely for speed, after folding to
// p <= 1/2 (a draw at p > 1/2 is n minus a draw at 1 - p):
//  * n <= 16: a sum of n Bernoulli bits;
//  * folded mean n*p < 10: CDF inversion from 0, O(np) steps;
//  * folded mean >= 10: BTRD, Hörmann's transformed rejection with
//    decomposition (W. Hörmann, "The generation of binomial random
//    variates", J. Stat. Comput. Simul. 46, 1993). It costs O(1) expected
//    uniforms per draw, uses a 10-entry Stirling-correction table, calls no
//    lgamma and does not allocate.
#pragma once

#include <cstdint>

#include "rng/xoshiro.h"

namespace antalloc::rng {

// Draws Binomial(n, p). Requires n >= 0 and p in [0, 1] (clamped).
std::int64_t binomial(Xoshiro256& gen, std::int64_t n, double p);

// The Stirling correction fc(k) = ln k! - (k + 1/2) ln(k + 1) + (k + 1)
// - ln(2 pi) / 2 that BTRD's final test uses: a table for k <= 9, the
// 3-term series in 1/(k + 1) above that. Exposed for tests.
double stirling_correction(std::int64_t k);

}  // namespace antalloc::rng
