// Poisson-binomial helpers for the aggregate simulator.
//
// An idle ant sees, per task j, an independent event "both samples said
// lack" with probability p[j]; it then joins a task chosen uniformly at
// random among the tasks whose event fired (Algorithm Ant, line 11). The
// per-ant marginal join probability for task j is therefore
//
//   q[j] = p[j] * E[ 1 / (1 + B_j) ],   B_j = sum_{i != j} Bernoulli(p[i]),
//
// which we evaluate exactly with an O(k^2) dynamic program over the
// Poisson-binomial distribution of B_j (leave-one-out). Idle ants are i.i.d.
// given the current loads, so the join counts are Multinomial(n_idle, q).
//
// The helpers write into caller-owned storage, so per-round hot paths (the
// aggregate kernels, rng/bulk_sampler.h) stay allocation-free. The PMF also
// has an allocating wrapper that computes the same floating-point operations
// in the same order, so the two are bit-identical.
#pragma once

#include <span>
#include <vector>

namespace antalloc::rng {

// PMF of the Poisson-binomial distribution: counts of successes among
// independent Bernoulli(p[i]). `pmf_out` must have size p.size() + 1.
void poisson_binomial_pmf_into(std::span<const double> p,
                               std::span<double> pmf_out);

// Allocating wrapper; returns a vector of size p.size() + 1.
std::vector<double> poisson_binomial_pmf(std::span<const double> p);

// Reusable workspace for uniform_choice_marginals_into. Sized lazily to the
// task count; reusing one instance across rounds keeps the call
// allocation-free after the first use.
struct ChoiceMarginalsWorkspace {
  std::vector<double> rest;  // leave-one-out probability list (k - 1)
  std::vector<double> pmf;   // leave-one-out PMF (k)
};

// Exact per-task join probabilities q[j] as defined above. `q_out` must have
// size p.size(); 1 - sum(q) is the probability of remaining idle.
void uniform_choice_marginals_into(std::span<const double> p,
                                   std::span<double> q_out,
                                   ChoiceMarginalsWorkspace& ws);

}  // namespace antalloc::rng
