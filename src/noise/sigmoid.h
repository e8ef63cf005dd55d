// Sigmoid noise model (paper §2.2): F = lack with probability
// s(Δ) = 1 / (1 + e^{−λΔ}), independently per ant and task.
//
// λ ("steepness") controls how quickly feedback becomes reliable as the
// deficit grows; together with the smallest demand it determines the
// critical value γ* (Definition 2.3, core/critical_value.h).
#pragma once

#include "noise/feedback_model.h"

namespace antalloc {

// The logistic sigmoid itself, exposed because tests and benches use it.
double sigmoid(double lambda, double x);

class SigmoidFeedback final : public FeedbackModel {
 public:
  explicit SigmoidFeedback(double lambda);

  std::string_view name() const override { return "sigmoid"; }
  double lambda() const { return lambda_; }

  double lack_probability(Round t, TaskId j, double deficit,
                          double demand) const override;
  bool samples_marginal() const override { return true; }

 private:
  double lambda_;
};

}  // namespace antalloc
