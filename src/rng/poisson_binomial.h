// Poisson-binomial helpers for the aggregate simulator.
//
// An idle ant sees, per task j, an independent event "both samples said
// lack" with probability p[j]; it then joins a task chosen uniformly at
// random among the tasks whose event fired (Algorithm Ant, line 11). The
// per-ant marginal join probability for task j is therefore
//
//   q[j] = p[j] * E[ 1 / (1 + B_j) ],   B_j = sum_{i != j} Bernoulli(p[i]),
//
// which we evaluate exactly from the leave-one-out Poisson-binomial PMF of
// B_j. Idle ants are i.i.d. given the current loads, so the join counts are
// Multinomial(n_idle, q).
//
// The marginals return the bits of the textbook evaluation: for each j,
// convolve the other tasks' clamped p in ascending order with
// poisson_binomial_pmf_into's recurrence, sum pmf[b] / (1 + b) over b
// ascending, multiply by p[j] (q[j] = +0 where the clamped p[j] is 0). They
// skip what cannot change a bit of that. A task whose clamped p is exactly
// 0 or 1 is certain: its convolution step is the identity or a shift by one,
// bit for bit, so no PMF convolves it. Each certain-lack task (p == 1)
// other than j adds one to the divisors 1 + b of j's sum instead, and the
// +0 terms the shift would have put in front add nothing. What is left is
// one PMF per uncertain task, plus one over all uncertain tasks that every
// certain-lack task shares: O(m^2) per PMF for m uncertain tasks. Those
// PMFs run in lockstep, one vector lane each; the lane of uncertain task j
// takes a p = 0 (identity) step in j's place. A NaN p is uncertain and
// turns every lane it is convolved into NaN, as in the textbook evaluation.
//
// The helpers write into caller-owned storage, so per-round hot paths (the
// aggregate kernels, rng/bulk_sampler.h) stay allocation-free. The PMF also
// has an allocating wrapper that computes the same floating-point operations
// in the same order, so the two are bit-identical.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace antalloc::rng {

// PMF of the Poisson-binomial distribution: counts of successes among
// independent Bernoulli(p[i]). `pmf_out` must have size p.size() + 1.
void poisson_binomial_pmf_into(std::span<const double> p,
                               std::span<double> pmf_out);

// Allocating wrapper; returns a vector of size p.size() + 1.
std::vector<double> poisson_binomial_pmf(std::span<const double> p);

// Reusable workspace for uniform_choice_marginals_into. Sized to the worst
// case for the task count on first use; reusing one instance across rounds
// keeps the call allocation-free after that.
struct ChoiceMarginalsWorkspace {
  std::vector<std::size_t> uncertain;  // the uncertain tasks, ascending
  std::vector<double> pmf;             // one block of lanes, pmf[c·8 + lane]
  std::vector<double> lane;            // steps, divisors and sums
};

// Exact per-task join probabilities q[j] as defined above. `q_out` must have
// size p.size(); 1 - sum(q) is the probability of remaining idle.
using ChoiceMarginalsFn = void (*)(std::span<const double> p,
                                   std::span<double> q_out,
                                   ChoiceMarginalsWorkspace& ws);

// The one marginal body compiled for the baseline ISA and, on x86-64, for
// x86-64-v4 (AVX-512) and x86-64-v3 (AVX2). The library builds with
// -ffp-contract=off, so all of them return the same bits. Callers of v4/v3
// must gate on the CPU, as kChoiceMarginals does; tests call each by name.
void choice_marginals_base(std::span<const double> p, std::span<double> q_out,
                           ChoiceMarginalsWorkspace& ws);

#if defined(__x86_64__) || defined(_M_X64)

[[gnu::target("arch=x86-64-v4")]] void choice_marginals_v4(
    std::span<const double> p, std::span<double> q_out,
    ChoiceMarginalsWorkspace& ws);
[[gnu::target("arch=x86-64-v3")]] void choice_marginals_v3(
    std::span<const double> p, std::span<double> q_out,
    ChoiceMarginalsWorkspace& ws);

namespace detail {
inline ChoiceMarginalsFn pick_choice_marginals() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return choice_marginals_v4;
  if (__builtin_cpu_supports("x86-64-v3")) return choice_marginals_v3;
  return choice_marginals_base;
}
}  // namespace detail

// The widest wrapper this CPU runs, resolved once at startup like
// kThresholdTile (algo/threshold.h).
inline const ChoiceMarginalsFn kChoiceMarginals =
    detail::pick_choice_marginals();

#else

inline const ChoiceMarginalsFn kChoiceMarginals = choice_marginals_base;

#endif

inline void uniform_choice_marginals_into(std::span<const double> p,
                                          std::span<double> q_out,
                                          ChoiceMarginalsWorkspace& ws) {
  kChoiceMarginals(p, q_out, ws);
}

}  // namespace antalloc::rng
