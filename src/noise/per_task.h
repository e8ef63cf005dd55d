// Per-task heterogeneous noise: a different sigmoid steepness λ(j) for each
// task. The paper's model lets the grey zone differ per task (Definition 2.3
// takes the worst task); heterogeneous demands with heterogeneous sensing
// sharpness is the realistic colony setting (tasks like thermoregulation
// have crisp stimuli, brood care fuzzy ones).
#pragma once

#include <vector>

#include "noise/feedback_model.h"

namespace antalloc {

class PerTaskSigmoidFeedback final : public FeedbackModel {
 public:
  // One lambda per task; all must be > 0.
  explicit PerTaskSigmoidFeedback(std::vector<double> lambdas);

  std::string_view name() const override { return "per-task-sigmoid"; }
  double lambda(TaskId j) const {
    return lambdas_[static_cast<std::size_t>(j)];
  }

  double lack_probability(Round t, TaskId j, double deficit,
                          double demand) const override;
  bool samples_marginal() const override { return true; }

 private:
  std::vector<double> lambdas_;
};

}  // namespace antalloc
