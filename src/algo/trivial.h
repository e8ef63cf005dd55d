// The "trivial" reactive algorithm (paper Appendix D) and its sequential-
// model runner.
//
// Rule, applied by every ant each round: an idle ant that sees lack at some
// task joins one such task uniformly at random; a working ant leaves (with
// probability `leave_probability`) when it sees overload at its own task.
// The paper's trivial algorithm has leave_probability = 1; the damped
// variant (0.5) doubles as our stand-in for the DISC'14 exact-feedback
// baseline (see sharp_threshold.h).
//
// Appendix D shows this rule behaves very differently per model:
//  * sequential model (one uniformly random ant acts per round): regret
//    Θ(γ*·Σd) — perfectly fine;
//  * synchronous model: full-colony oscillations for e^{Ω(n)} rounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/algorithm.h"
#include "metrics/regret.h"
#include "rng/poisson_binomial.h"

namespace antalloc {

struct ReactiveParams {
  double leave_probability = 1.0;  // applied on seeing own-task overload
};

class ReactiveAgent final : public AgentAlgorithm {
 public:
  ReactiveAgent(ReactiveParams params, std::string name = "trivial");

  std::string_view name() const override { return name_; }

  void reset(Count n_ants, std::int32_t k, std::span<const TaskId> initial,
             std::uint64_t seed) override;
  void step(Round t, const FeedbackAccess& fb, std::span<const TaskId> prev,
            std::span<TaskId> next) override;

 private:
  ReactiveParams params_;
  std::string name_;
  std::uint64_t seed_ = 0;
  std::int32_t k_ = 0;
};

class ReactiveAggregate final : public AggregateKernel {
 public:
  ReactiveAggregate(ReactiveParams params, std::string name = "trivial");

  std::string_view name() const override { return name_; }

  void reset(const Allocation& initial, std::uint64_t seed) override;
  RoundOutput step(Round t, const DemandVector& demands,
                   const FeedbackModel& fm) override;
  // The reactive rule is memoryless, so flushed ants are ordinary idle ants
  // from the next round on — no phase boundary to wait for.
  Count apply_lifecycle(Round t, const ActiveSet& active) override;

 private:
  ReactiveParams params_;
  std::string name_;
  rng::Xoshiro256 gen_;
  Count idle_ = 0;
  std::vector<Count> loads_;
  std::vector<Count> prev_loads_;
  std::vector<double> scratch_;
  std::vector<double> join_marginals_;  // q[j] for the idle-pool join
  std::vector<Count> joins_;            // joins per task this round
  rng::ChoiceMarginalsWorkspace marginals_ws_;
  std::vector<std::uint8_t> task_active_;  // lifecycle flags (1 = active)
};

// Sequential-model run (Appendix D.1): in each round exactly one uniformly
// random ant receives feedback (reflecting the current loads) and applies
// the reactive rule with the given leave probability. Returns the usual
// summary; note that one sequential round moves at most one ant, so time
// scales differ from the synchronous engines by a factor ~n.
SimResult run_reactive_sequential(ReactiveParams params, Count n_ants,
                                  const DemandVector& demands, Round rounds,
                                  FeedbackModel& fm, const Allocation& initial,
                                  MetricsRecorder::Options metrics,
                                  std::uint64_t seed);

// The paper's trivial algorithm (leave probability 1) in the sequential
// model.
SimResult run_trivial_sequential(Count n_ants, const DemandVector& demands,
                                 Round rounds, FeedbackModel& fm,
                                 const Allocation& initial,
                                 MetricsRecorder::Options metrics,
                                 std::uint64_t seed);

}  // namespace antalloc
