// Algorithm Ant (paper §4, Theorem 3.1).
//
// Phases of two rounds. In the odd round every ant takes a first sample s1
// of its task's feedback and each *working* ant pauses for the rest of the
// phase with probability cs·γ — this spaces the two samples ~cs·γ·W apart so
// at least one of them lands outside the grey zone. In the even round every
// ant takes the second sample s2 of the (now reduced) load and then:
//   * a working ant whose own-task samples were both overload leaves
//     permanently with probability γ/cd;
//   * an idle ant joins a task drawn uniformly among those whose two samples
//     were both lack (if any).
// Constants cs = 2.4, cd = 19 (see RegretBands in metrics/regret.h for why
// 2.4; both are configurable).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "algo/algorithm.h"
#include "rng/poisson_binomial.h"

namespace antalloc {

class AntBatchedRunner;  // algo/ant_batched.h

struct AntParams {
  double gamma = 0.02;  // learning rate γ in [γ*, 1/16]
  double cs = 2.4;      // temporary-pause constant
  double cd = 19.0;     // permanent-leave damping constant

  double pause_probability() const { return cs * gamma; }
  double leave_probability() const { return gamma / cd; }
};

// Per-ant automaton. State per ant: current task (the task it is committed
// to for the phase) and the lack-bitmask of its first sample — constant
// memory, matching the paper's model.
class AntAgent final : public AgentAlgorithm {
 public:
  explicit AntAgent(AntParams params);
  ~AntAgent() override;

  std::string_view name() const override { return "ant"; }
  const AntParams& params() const { return params_; }

  void reset(Count n_ants, std::int32_t k, std::span<const TaskId> initial,
             std::uint64_t seed) override;
  void step(Round t, const FeedbackAccess& fb, std::span<const TaskId> prev,
            std::span<TaskId> next) override;
  // Drops phase commitments to dying tasks: a flushed worker's first-sample
  // mask is cleared, so it cannot join anything before the next phase start.
  void on_lifecycle(Round t, const ActiveSet& active) override;
  // Count-level fast path (algo/ant_batched.h), lazily constructed.
  BatchedAgentRunner* batched_runner() override;

 private:
  AntParams params_;
  std::uint64_t seed_ = 0;
  std::int32_t k_ = 0;
  std::vector<TaskId> current_task_;     // task committed to this phase
  std::vector<std::uint64_t> s1_lack_;   // first-sample lack bitmask
  std::unique_ptr<AntBatchedRunner> batched_;
};

// Exact count-level kernel (i.i.d. feedback only). Internal classes per
// task: assigned (committed) ants, of which `paused` sit out the even round;
// plus the idle pool.
class AntAggregate final : public AggregateKernel {
 public:
  explicit AntAggregate(AntParams params);

  std::string_view name() const override { return "ant"; }
  const AntParams& params() const { return params_; }

  void reset(const Allocation& initial, std::uint64_t seed) override;
  RoundOutput step(Round t, const DemandVector& demands,
                   const FeedbackModel& fm) override;
  Count apply_lifecycle(Round t, const ActiveSet& active) override;

 private:
  AntParams params_;
  rng::Xoshiro256 gen_;
  Count idle_ = 0;
  // Ants flushed off dying tasks; they re-enter the idle (joinable) pool at
  // the next phase start, matching the agent automaton where a mid-phase
  // flush clears the first-sample mask and blocks joins until the phase ends.
  Count flushed_ = 0;
  std::vector<Count> assigned_;   // committed ants per task (incl. paused)
  std::vector<Count> paused_;     // temporarily idle this phase
  std::vector<Count> visible_;    // W(j)_t returned to the engine
  std::vector<Count> prev_visible_;  // W(j)_{t-1}, what round-t feedback sees
  std::vector<double> p1_lack_;   // first-sample lack probability per task
  std::vector<double> scratch_;
  std::vector<double> join_marginals_;  // q[j] for the idle-pool join
  std::vector<Count> joins_;            // joins per task this round
  rng::ChoiceMarginalsWorkspace marginals_ws_;
  std::vector<std::uint8_t> task_active_;  // lifecycle flags (1 = active)
};

}  // namespace antalloc
