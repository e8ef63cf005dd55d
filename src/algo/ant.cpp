#include "algo/ant.h"

#include <bit>
#include <stdexcept>

#include "algo/ant_batched.h"
#include "core/bits.h"
#include "rng/binomial.h"
#include "rng/multinomial.h"
#include "rng/poisson_binomial.h"

namespace antalloc {
namespace {

void validate(const AntParams& p) {
  if (!(p.gamma > 0.0) || p.gamma > 1.0) {
    throw std::invalid_argument("AntParams: gamma in (0, 1]");
  }
  if (p.pause_probability() >= 1.0) {
    throw std::invalid_argument("AntParams: cs*gamma must be < 1");
  }
  if (p.leave_probability() >= 1.0) {
    throw std::invalid_argument("AntParams: gamma/cd must be < 1");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Agent form
// ---------------------------------------------------------------------------

AntAgent::AntAgent(AntParams params) : params_(params) { validate(params_); }

AntAgent::~AntAgent() = default;

BatchedAgentRunner* AntAgent::batched_runner() {
  if (!batched_) batched_ = std::make_unique<AntBatchedRunner>(params_);
  return batched_.get();
}

void AntAgent::reset(Count n_ants, std::int32_t k,
                     std::span<const TaskId> initial, std::uint64_t seed) {
  if (k > kMaxAgentTasks) {
    throw std::invalid_argument("AntAgent: k exceeds kMaxAgentTasks");
  }
  seed_ = seed;
  k_ = k;
  current_task_.assign(initial.begin(), initial.end());
  s1_lack_.assign(static_cast<std::size_t>(n_ants), 0);
}

void AntAgent::step(Round t, const FeedbackAccess& fb,
                    std::span<const TaskId> prev, std::span<TaskId> next) {
  const auto n = static_cast<std::int64_t>(prev.size());
  const bool first_round_of_phase = (t % 2) == 1;

  if (first_round_of_phase) {
    // Idle ants need the full first-sample vector for the join rule;
    // working ants only ever consult their own task's sample.
    const auto wanted = [&](std::int64_t i) {
      return own_task_or_all(prev[static_cast<std::size_t>(i)]);
    };
    fb.for_each_lack_mask(n, wanted, [&](std::int64_t i, std::uint64_t s1) {
      const auto iu = static_cast<std::size_t>(i);
      // Line 4: commit to the task held at the end of the previous phase.
      const TaskId ct = prev[iu];
      current_task_[iu] = ct;
      s1_lack_[iu] = s1;
      if (ct == kIdle) {
        next[iu] = kIdle;
      } else {
        rng::Xoshiro256 gen(rng::hash_words(seed_ ^ 0xA11Au,
                                            static_cast<std::uint64_t>(t),
                                            static_cast<std::uint64_t>(i)));
        next[iu] = gen.bernoulli(params_.pause_probability()) ? kIdle : ct;
      }
    });
    return;
  }

  // Second round of the phase: sample s2 and decide. An idle ant only needs
  // s2 where s1 was lack; a working ant only its own task.
  const auto wanted = [&](std::int64_t i) {
    const auto iu = static_cast<std::size_t>(i);
    const TaskId ct = current_task_[iu];
    return ct == kIdle ? s1_lack_[iu] : 1ull << ct;
  };
  fb.for_each_lack_mask(n, wanted, [&](std::int64_t i, std::uint64_t s2) {
    const auto iu = static_cast<std::size_t>(i);
    const TaskId ct = current_task_[iu];
    rng::Xoshiro256 gen(rng::hash_words(seed_ ^ 0xA22Au,
                                        static_cast<std::uint64_t>(t),
                                        static_cast<std::uint64_t>(i)));
    if (ct == kIdle) {
      const std::uint64_t both_lack = s1_lack_[iu] & s2;
      if (both_lack == 0) {
        next[iu] = kIdle;
      } else {
        const int choices = std::popcount(both_lack);
        const int pick = static_cast<int>(
            gen.uniform_below(static_cast<std::uint64_t>(choices)));
        next[iu] = static_cast<TaskId>(nth_set_bit(both_lack, pick));
      }
    } else {
      const bool s1_over = (s1_lack_[iu] & (1ull << ct)) == 0;
      const bool s2_over = s2 == 0;
      const bool leave = s1_over && s2_over &&
                         gen.bernoulli(params_.leave_probability());
      next[iu] = leave ? kIdle : ct;
    }
  });
}

void AntAgent::on_lifecycle(Round /*t*/, const ActiveSet& active) {
  const std::uint64_t mask = active.mask64();
  for (std::size_t i = 0; i < current_task_.size(); ++i) {
    // Dead tasks drop out of every first-sample mask: a flushed worker's
    // mask empties (it only ever held its own task), so it cannot join
    // before the next phase start; an idle ant merely loses the dead task
    // from its join candidates.
    s1_lack_[i] &= mask;
    TaskId& ct = current_task_[i];
    if (ct != kIdle && !active[ct]) ct = kIdle;
  }
}

// ---------------------------------------------------------------------------
// Aggregate form
// ---------------------------------------------------------------------------

AntAggregate::AntAggregate(AntParams params) : params_(params) {
  validate(params_);
}

void AntAggregate::reset(const Allocation& initial, std::uint64_t seed) {
  gen_ = rng::Xoshiro256(rng::hash_combine(seed, 0xA99Au));
  const auto k = static_cast<std::size_t>(initial.num_tasks());
  assigned_.assign(initial.loads().begin(), initial.loads().end());
  paused_.assign(k, 0);
  visible_ = assigned_;
  prev_visible_ = assigned_;
  p1_lack_.assign(k, 0.0);
  scratch_.assign(k, 0.0);
  task_active_.assign(k, 1);
  idle_ = initial.idle();
  flushed_ = 0;
}

Count AntAggregate::apply_lifecycle(Round /*t*/, const ActiveSet& active) {
  Count switched = 0;
  for (std::size_t j = 0; j < assigned_.size(); ++j) {
    const bool now_active = active[static_cast<TaskId>(j)];
    if (!now_active && task_active_[j] != 0) {
      // Retire: every committed ant (paused ones are already idle-visible
      // and do not switch again) moves to the flushed pool, which rejoins
      // the idle pool at the next phase start.
      switched += visible_[j];
      flushed_ += assigned_[j];
      assigned_[j] = 0;
      paused_[j] = 0;
      visible_[j] = 0;
      p1_lack_[j] = 0.0;
    }
    task_active_[j] = now_active ? 1 : 0;
  }
  return switched;
}

AggregateKernel::RoundOutput AntAggregate::step(Round t,
                                                const DemandVector& demands,
                                                const FeedbackModel& fm) {
  const auto k = static_cast<std::size_t>(demands.num_tasks());
  std::int64_t switches = 0;
  prev_visible_ = visible_;

  if (t % 2 == 1) {
    // Phase start: ants flushed off dying tasks re-enter the idle pool and
    // become joinable at this phase's decision round.
    idle_ += flushed_;
    flushed_ = 0;
    // First round: record the first-sample distribution, then pause a
    // Binomial(assigned, cs*gamma) subset of each task's workers.
    for (std::size_t j = 0; j < k; ++j) {
      if (task_active_[j] == 0) {
        p1_lack_[j] = 0.0;  // dormant: unconditional overload
        continue;
      }
      const auto tj = static_cast<TaskId>(j);
      const double deficit =
          static_cast<double>(demands[tj] - prev_visible_[j]);
      p1_lack_[j] = fm.lack_probability(t, tj, deficit,
                                        static_cast<double>(demands[tj]));
      paused_[j] =
          rng::binomial(gen_, assigned_[j], params_.pause_probability());
      visible_[j] = assigned_[j] - paused_[j];
      switches += paused_[j];
    }
    return {visible_, switches};
  }

  // Second round: second sample of the reduced loads, then permanent
  // leaves and idle-pool joins. Joins come from the ants idle at the START
  // of the phase — a leaver cannot rejoin in its own decision round (the
  // agent automaton commits each ant to exactly one role per phase).
  const Count joinable = idle_;
  for (std::size_t j = 0; j < k; ++j) {
    if (task_active_[j] == 0) {
      scratch_[j] = 0.0;  // dormant: no joins, nothing assigned to leave
      paused_[j] = 0;
      continue;
    }
    const auto tj = static_cast<TaskId>(j);
    const double deficit = static_cast<double>(demands[tj] - prev_visible_[j]);
    const double p2 = fm.lack_probability(t, tj, deficit,
                                          static_cast<double>(demands[tj]));
    // Per committed ant: P(leave) = P(s1 = s2 = overload) * gamma/cd.
    const double p_leave =
        (1.0 - p1_lack_[j]) * (1.0 - p2) * params_.leave_probability();
    const Count leaves = rng::binomial(gen_, assigned_[j], p_leave);
    assigned_[j] -= leaves;
    idle_ += leaves;
    switches += leaves + paused_[j];  // leavers + resuming paused ants
    // Per idle ant: P(both samples lack) for the join rule.
    scratch_[j] = p1_lack_[j] * p2;
    paused_[j] = 0;
  }

  const std::vector<double> join_marginals =
      rng::uniform_choice_marginals(scratch_);
  const std::vector<Count> joins =
      rng::multinomial_rest(gen_, joinable, join_marginals);
  for (std::size_t j = 0; j < k; ++j) {
    assigned_[j] += joins[j];
    idle_ -= joins[j];
    switches += joins[j];
    visible_[j] = assigned_[j];
  }
  return {visible_, switches};
}

}  // namespace antalloc
