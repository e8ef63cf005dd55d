// Bulk per-round randomness for batched agent simulation.
//
// The batched agent fast path replaces O(n) per-ant Bernoulli streams with
// O(k + moves) work per round: one exact count draw per (task group,
// decision kind) to decide HOW MANY ants act, then an unbiased partial
// Fisher-Yates over the group's index slice to decide WHICH. Because the
// per-ant decisions are i.i.d. within a behavioural class, (Binomial count,
// uniform subset) has exactly the joint law of per-ant coins — the count
// draws carry the law and the selections carry exchangeability.
//
// Two independent generator streams:
//  * the COUNT stream carries the distributional draws (binomial /
//    multinomial). It is seeded exactly like the matching aggregate kernel's
//    generator, so for a matched seed the batched agent engine and the
//    aggregate kernel produce bit-identical per-round load trajectories —
//    the property tests/agent_batched_test pins.
//  * the SELECTION stream picks indices. It only decides which exchangeable
//    ants move, never how many, so its draws cannot influence any count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/poisson_binomial.h"
#include "rng/xoshiro.h"

namespace antalloc::rng {

class BulkSampler {
 public:
  // `count_seed` / `selection_seed` seed the two streams directly (callers
  // pass already-mixed values, e.g. hash_combine(run_seed, tag)).
  BulkSampler(std::uint64_t count_seed, std::uint64_t selection_seed)
      : count_gen_(count_seed), selection_gen_(selection_seed) {}

  // --- Count stream -------------------------------------------------------

  // Binomial(n, p) from the count stream.
  std::int64_t binomial(std::int64_t n, double p);

  // Multinomial-with-rest from the count stream; writes per-outcome counts
  // into `counts` (size probs.size()) and returns the leftover. Consumes the
  // same draws as rng::multinomial_rest_into.
  std::int64_t multinomial_rest(std::int64_t n, std::span<const double> probs,
                                std::span<std::int64_t> counts);

  // Exact uniform-choice marginals (no randomness; workspace-backed so the
  // call is allocation-free once warm).
  void join_marginals(std::span<const double> p, std::span<double> q_out) {
    uniform_choice_marginals_into(p, q_out, ws_);
  }

  // --- Selection stream ----------------------------------------------------

  // Uniform index in [0, bound); bound must be > 0.
  std::uint64_t pick(std::uint64_t bound) {
    return selection_gen_.uniform_below(bound);
  }

  // Partial Fisher-Yates: moves `count` uniformly chosen distinct elements
  // of `slice` into its suffix [slice.size() - count, slice.size()),
  // permuting nothing else. Every size-`count` subset is equally likely.
  template <typename T>
  void select_to_suffix(std::span<T> slice, std::int64_t count) {
    std::size_t end = slice.size();
    for (std::int64_t s = 0; s < count; ++s) {
      const std::size_t idx = static_cast<std::size_t>(pick(end));
      --end;
      std::swap(slice[idx], slice[end]);
    }
  }

 private:
  Xoshiro256 count_gen_;
  Xoshiro256 selection_gen_;
  ChoiceMarginalsWorkspace ws_;
};

}  // namespace antalloc::rng
