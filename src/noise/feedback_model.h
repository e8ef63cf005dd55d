// Noisy-feedback interface (paper §2.2).
//
// At the beginning of round t each ant receives, per task j, a binary signal
// F(j)_t(i) in {lack, overload} that depends on the deficit Δ(j)_{t-1}. The
// two concrete models from the paper are SigmoidFeedback (stochastic) and
// AdversarialFeedback (deterministic outside a grey zone, adversary-chosen
// inside); ExactFeedback reproduces the noiseless substrate of the DISC'14
// baseline and CorrelatedFeedback implements Remark 3.4.
//
// Engines interact with a model in two ways:
//  * the aggregate engine uses `lack_probability` (the per-ant marginal) and
//    requires `iid_across_ants()`;
//  * the agent engine calls `begin_round` once per round (lets stateful
//    models draw shared randomness) and then `sample` per (ant, task).
#pragma once

#include <span>
#include <string_view>

#include "core/types.h"
#include "rng/xoshiro.h"

namespace antalloc {

class FeedbackModel {
 public:
  virtual ~FeedbackModel() = default;

  virtual std::string_view name() const = 0;

  // Marginal probability that one ant receives `lack` for a task whose
  // deficit (at the previous time step) is `deficit` and whose demand is
  // `demand`, during round t.
  virtual double lack_probability(Round t, TaskId j, double deficit,
                                  double demand) const = 0;

  // Whether per-ant draws are conditionally independent given the loads.
  // The aggregate engine refuses models where this is false.
  virtual bool iid_across_ants() const { return true; }

  // Whether the signal is a deterministic function of (t, j, deficit,
  // demand) — true for adversarial/exact models. Kernels that can only
  // aggregate deterministic feedback (Precise Adversarial) check this.
  virtual bool deterministic() const { return false; }

  // Hook called once per round before any `sample` call, with the deficits
  // and demands in force. Default: no-op. Stateful models (correlated noise)
  // draw their shared randomness here.
  virtual void begin_round(Round t, std::span<const double> deficits,
                           std::span<const Count> demands,
                           rng::Xoshiro256& gen);

  // Per-ant draw. Default: Bernoulli(lack_probability).
  virtual Feedback sample(Round t, TaskId j, std::int64_t ant, double deficit,
                          double demand, rng::Xoshiro256& gen) const;

  // Opt-in promise that `sample` is exactly the default above — lack iff
  // gen.uniform() < lack_probability(t, j, deficit, demand), with that
  // probability a pure function of its arguments. The agent engine then
  // computes p once per (round, task) and skips `sample` (algo/algorithm.h
  // FeedbackAccess). A model that overrides `sample` must not claim it.
  virtual bool samples_marginal() const { return false; }
};

}  // namespace antalloc
