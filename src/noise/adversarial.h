// Adversarial noise model (paper §2.2): parameterized by γ^{ad}. Outside the
// grey zone |Δ| ≤ γ^{ad}·d(j) the feedback is forced to be correct; inside it
// the adversary chooses the value. The adversary is a pluggable strategy so
// benches can exercise both benign and worst-case behaviour, including the
// indistinguishable-demand-pair adversary of Theorem 3.5.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "noise/feedback_model.h"

namespace antalloc {

// Strategy deciding the signal inside the grey zone. Implementations must be
// deterministic functions of their arguments (that is what makes the model
// "adversarial" rather than stochastic, and what the Precise Adversarial
// aggregate kernel relies on).
class GreyZoneAdversary {
 public:
  virtual ~GreyZoneAdversary() = default;
  virtual std::string_view name() const = 0;
  virtual Feedback choose(Round t, TaskId j, double deficit,
                          double demand) const = 0;
};

// "Honest": report the sign of the deficit (lack iff Δ >= 0). The mildest
// adversary; matches the sigmoid's behaviour in the λ→∞ limit.
std::unique_ptr<GreyZoneAdversary> make_honest_adversary();

// Constant answers.
std::unique_ptr<GreyZoneAdversary> make_always_lack_adversary();
std::unique_ptr<GreyZoneAdversary> make_always_overload_adversary();

// "Anti-gradient": report the opposite of the truth inside the zone, pushing
// the colony away from the demand — the natural worst case for convergence.
std::unique_ptr<GreyZoneAdversary> make_anti_gradient_adversary();

// Alternate lack/overload by round parity: maximizes churn for algorithms
// that compare two consecutive samples.
std::unique_ptr<GreyZoneAdversary> make_alternating_adversary();

// Theorem 3.5 adversary: shifts the perceived lack/overload threshold to one
// edge of the grey zone, making the demand pair d and d' = d·(1 + 2γ^{ad})
// produce *identical* feedback at every load — so no algorithm, however
// powerful, can tell which world it is in, and must pay ≈ γ^{ad}·d regret in
// one of them.
//
// With τ = γ^{ad}·d (the smaller demand's grey-zone halfwidth, the same
// absolute width in both worlds):
//   world d  (sign=+1): lack iff Δ  ≥ −τ  — inside d's grey zone this is
//                       simply "always lack";
//   world d' (sign=−1): lack iff Δ' ≥ +τ, where τ = γ^{ad}·d'/(1+2γ^{ad}).
// Both rules flip at the common absolute load L* = d + τ = d' − τ.
std::unique_ptr<GreyZoneAdversary> make_indistinguishable_adversary(
    int sign, double gamma_ad);

// Name-keyed factory over every adversary above — the registry entry point
// the CLI's --adversary flag and the daemon's JobNoise both resolve through
// (one resolver, so a wire spec and a flag build the same strategy). Names:
// honest, always-lack, always-overload, anti-gradient, alternating, indist+,
// indist- (the two indistinguishable worlds take gamma_ad; the rest ignore
// it). Throws std::invalid_argument on an unknown name.
std::unique_ptr<GreyZoneAdversary> make_named_adversary(const std::string& name,
                                                        double gamma_ad);

// The names make_named_adversary accepts, in documentation order.
std::vector<std::string> adversary_names();

class AdversarialFeedback final : public FeedbackModel {
 public:
  AdversarialFeedback(double gamma_ad,
                      std::unique_ptr<GreyZoneAdversary> adversary);

  std::string_view name() const override { return name_; }
  double gamma_ad() const { return gamma_ad_; }
  const GreyZoneAdversary& adversary() const { return *adversary_; }

  double lack_probability(Round t, TaskId j, double deficit,
                          double demand) const override;
  bool deterministic() const override { return true; }
  bool samples_marginal() const override { return true; }

 private:
  double gamma_ad_;
  std::unique_ptr<GreyZoneAdversary> adversary_;
  std::string name_;
};

}  // namespace antalloc
