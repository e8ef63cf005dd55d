// Exact (noiseless) binary feedback: the substrate assumed by the DISC'14
// baseline [Cornejo et al.]. Every ant learns the true sign of the deficit:
// lack iff W(j) <= d(j) (i.e. Δ >= 0), overload otherwise.
#pragma once

#include "noise/feedback_model.h"

namespace antalloc {

class ExactFeedback final : public FeedbackModel {
 public:
  std::string_view name() const override { return "exact"; }
  bool deterministic() const override { return true; }
  bool samples_marginal() const override { return true; }

  double lack_probability(Round /*t*/, TaskId /*j*/, double deficit,
                          double /*demand*/) const override {
    return deficit >= 0.0 ? 1.0 : 0.0;
  }
};

}  // namespace antalloc
