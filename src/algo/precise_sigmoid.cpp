#include "algo/precise_sigmoid.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/bits.h"
#include "rng/binomial.h"
#include "rng/multinomial.h"
#include "rng/poisson_binomial.h"

namespace antalloc {
namespace {

void validate(const PreciseSigmoidParams& p) {
  if (!(p.gamma > 0.0) || p.gamma >= 0.5) {
    throw std::invalid_argument("PreciseSigmoidParams: gamma in (0, 1/2)");
  }
  if (!(p.epsilon > 0.0) || p.epsilon >= 1.0) {
    throw std::invalid_argument("PreciseSigmoidParams: epsilon in (0, 1)");
  }
  if (p.pause_probability() >= 1.0 || p.leave_probability() >= 1.0) {
    throw std::invalid_argument("PreciseSigmoidParams: probabilities >= 1");
  }
}

}  // namespace

std::int32_t PreciseSigmoidParams::window() const {
  auto m = static_cast<std::int32_t>(std::ceil(2.0 * cchi / epsilon + 1.0));
  if (m % 2 == 0) ++m;
  return m;
}

std::int32_t majority_threshold(std::int32_t m) { return m / 2 + 1; }

double median_lack_probability(std::span<const double> probs) {
  const auto pmf = rng::poisson_binomial_pmf(probs);
  const auto threshold =
      static_cast<std::size_t>(majority_threshold(
          static_cast<std::int32_t>(probs.size())));
  double tail = 0.0;
  for (std::size_t c = threshold; c < pmf.size(); ++c) tail += pmf[c];
  return tail;
}

// ---------------------------------------------------------------------------
// Agent form
// ---------------------------------------------------------------------------

PreciseSigmoidAgent::PreciseSigmoidAgent(PreciseSigmoidParams params)
    : params_(params) {
  validate(params_);
  m_ = params_.window();
}

void PreciseSigmoidAgent::reset(Count n_ants, std::int32_t k,
                                std::span<const TaskId> initial,
                                std::uint64_t seed) {
  if (k > kMaxAgentTasks) {
    throw std::invalid_argument("PreciseSigmoidAgent: k exceeds kMaxAgentTasks");
  }
  seed_ = seed;
  k_ = k;
  current_task_.assign(initial.begin(), initial.end());
  counts_.assign(static_cast<std::size_t>(n_ants) * static_cast<std::size_t>(k),
                 0);
  med1_lack_.assign(static_cast<std::size_t>(n_ants), 0);
  dormant_.assign(static_cast<std::size_t>(n_ants), 0);
}

void PreciseSigmoidAgent::on_lifecycle(Round /*t*/, const ActiveSet& active) {
  const std::uint64_t mask = active.mask64();
  const auto n = static_cast<std::int64_t>(current_task_.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    med1_lack_[iu] &= mask;
    TaskId& ct = current_task_[iu];
    if (ct != kIdle && !active[ct]) {
      ct = kIdle;
      dormant_[iu] = 1;
    }
  }
  // Zero every ant's lack counts for the dead tasks: a count accrued while
  // the task was alive must not survive into a window that straddles its
  // rebirth (the aggregate kernel zeroes the matching window entries).
  for (TaskId j = 0; j < k_; ++j) {
    if (active[j]) continue;
    for (std::int64_t i = 0; i < n; ++i) lack_count(i, j) = 0;
  }
}

void PreciseSigmoidAgent::accumulate(const FeedbackAccess& fb, Count n_ants) {
  const auto n = static_cast<std::int64_t>(n_ants);
  // Idle ants need the median for every active task (join rule), workers
  // only for their own, ants sitting out the phase for none. Dormant tasks
  // are masked to overload.
  const auto wanted = [&](std::int64_t i) {
    const auto iu = static_cast<std::size_t>(i);
    return dormant_[iu] != 0 ? 0 : own_task_or_all(current_task_[iu]);
  };
  fb.for_each_lack_mask(n, wanted, [&](std::int64_t i, std::uint64_t lack) {
    for (; lack != 0; lack &= lack - 1) {
      ++lack_count(i, static_cast<TaskId>(std::countr_zero(lack)));
    }
  });
}

void PreciseSigmoidAgent::step(Round t, const FeedbackAccess& fb,
                               std::span<const TaskId> prev,
                               std::span<TaskId> next) {
  const auto n = static_cast<std::int64_t>(prev.size());
  const Round phase = params_.phase_length();
  const Round r = t % phase;  // r = 1..phase-1, then 0 (decision round)
  const std::int32_t majority = majority_threshold(m_);

  if (r == 1) {
    // Phase start: commit to the task held at the end of the last phase;
    // ants flushed off dying tasks mid-phase wake up as ordinary idle ants.
    for (std::int64_t i = 0; i < n; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      current_task_[iu] = prev[iu];
    }
    std::fill(counts_.begin(), counts_.end(), 0);
    std::fill(dormant_.begin(), dormant_.end(), 0);
  }

  accumulate(fb, n);

  if (r >= 1 && r < m_) {
    // Window 1 in progress, assignments frozen.
    std::copy(prev.begin(), prev.end(), next.begin());
    return;
  }

  if (r == m_) {
    // First-window medians, then the temporary pause.
    for (std::int64_t i = 0; i < n; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      const TaskId ct = current_task_[iu];
      std::uint64_t mask = 0;
      if (ct == kIdle) {
        for (TaskId j = 0; j < k_; ++j) {
          if (lack_count(i, j) >= majority) mask |= (1ull << j);
        }
      } else if (lack_count(i, ct) >= majority) {
        mask |= (1ull << ct);
      }
      med1_lack_[iu] = mask;
      if (ct != kIdle) {
        rng::Xoshiro256 gen(rng::hash_words(seed_ ^ 0x51B1u,
                                            static_cast<std::uint64_t>(t),
                                            static_cast<std::uint64_t>(i)));
        next[iu] = gen.bernoulli(params_.pause_probability()) ? kIdle : ct;
      } else {
        next[iu] = prev[iu];
      }
    }
    std::fill(counts_.begin(), counts_.end(), 0);  // reuse for window 2
    return;
  }

  if (r != 0) {
    // Window 2 in progress, assignments frozen.
    std::copy(prev.begin(), prev.end(), next.begin());
    return;
  }

  // Decision round: second-window medians, leaves and joins.
  for (std::int64_t i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    const TaskId ct = current_task_[iu];
    rng::Xoshiro256 gen(rng::hash_words(seed_ ^ 0x51B2u,
                                        static_cast<std::uint64_t>(t),
                                        static_cast<std::uint64_t>(i)));
    if (ct == kIdle) {
      std::uint64_t med2 = 0;
      for (TaskId j = 0; j < k_; ++j) {
        if (lack_count(i, j) >= majority) med2 |= (1ull << j);
      }
      const std::uint64_t both = med1_lack_[iu] & med2;
      if (both == 0) {
        next[iu] = kIdle;
      } else {
        const int pick = static_cast<int>(
            gen.uniform_below(static_cast<std::uint64_t>(std::popcount(both))));
        next[iu] = static_cast<TaskId>(nth_set_bit(both, pick));
      }
    } else {
      const bool med1_over = (med1_lack_[iu] & (1ull << ct)) == 0;
      const bool med2_over = lack_count(i, ct) < majority;
      const bool leave = med1_over && med2_over &&
                         gen.bernoulli(params_.leave_probability());
      next[iu] = leave ? kIdle : ct;
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregate form
// ---------------------------------------------------------------------------

PreciseSigmoidAggregate::PreciseSigmoidAggregate(PreciseSigmoidParams params)
    : params_(params) {
  validate(params_);
  m_ = params_.window();
}

void PreciseSigmoidAggregate::reset(const Allocation& initial,
                                    std::uint64_t seed) {
  gen_ = rng::Xoshiro256(rng::hash_combine(seed, 0x51B3u));
  const auto k = static_cast<std::size_t>(initial.num_tasks());
  assigned_.assign(initial.loads().begin(), initial.loads().end());
  paused_.assign(k, 0);
  visible_ = assigned_;
  prev_visible_ = assigned_;
  window1_.assign(k, {});
  window2_.assign(k, {});
  med1_lack_.assign(k, 0.0);
  scratch_.assign(k, 0.0);
  task_active_.assign(k, 1);
  idle_ = initial.idle();
  flushed_ = 0;
}

Count PreciseSigmoidAggregate::apply_lifecycle(Round /*t*/,
                                               const ActiveSet& active) {
  Count switched = 0;
  for (std::size_t j = 0; j < assigned_.size(); ++j) {
    const bool now_active = active[static_cast<TaskId>(j)];
    if (!now_active && task_active_[j] != 0) {
      switched += visible_[j];
      flushed_ += assigned_[j];
      assigned_[j] = 0;
      paused_[j] = 0;
      visible_[j] = 0;
      med1_lack_[j] = 0.0;
      // The agent automata zero their lack counts for a dying task; the
      // matching kernel move is zeroing the window entries already pushed,
      // so a window straddling death + rebirth only counts post-rebirth
      // samples.
      for (auto& p : window1_[j]) p = 0.0;
      for (auto& p : window2_[j]) p = 0.0;
    }
    task_active_[j] = now_active ? 1 : 0;
  }
  return switched;
}

AggregateKernel::RoundOutput PreciseSigmoidAggregate::step(
    Round t, const DemandVector& demands, const FeedbackModel& fm) {
  const auto k = static_cast<std::size_t>(demands.num_tasks());
  const Round phase = params_.phase_length();
  const Round r = t % phase;
  std::int64_t switches = 0;
  prev_visible_ = visible_;

  if (r == 1) {
    // Phase start: ants flushed off dying tasks rejoin the idle pool.
    idle_ += flushed_;
    flushed_ = 0;
    for (auto& w : window1_) w.clear();
    for (auto& w : window2_) w.clear();
  }

  // Record this round's per-sample lack probability (feedback reflects the
  // previous round's visible loads). Dormant tasks record 0 — the
  // unconditional-overload signal.
  const bool in_window1 = (r >= 1 && r <= m_);
  for (std::size_t j = 0; j < k; ++j) {
    const auto tj = static_cast<TaskId>(j);
    const double deficit = static_cast<double>(demands[tj] - prev_visible_[j]);
    const double p =
        task_active_[j] != 0
            ? fm.lack_probability(t, tj, deficit,
                                  static_cast<double>(demands[tj]))
            : 0.0;
    (in_window1 ? window1_[j] : window2_[j]).push_back(p);
  }

  if (r == m_) {
    // First-window medians and the temporary pause.
    for (std::size_t j = 0; j < k; ++j) {
      if (task_active_[j] == 0) {
        med1_lack_[j] = 0.0;
        continue;
      }
      med1_lack_[j] = median_lack_probability(window1_[j]);
      paused_[j] =
          rng::binomial(gen_, assigned_[j], params_.pause_probability());
      visible_[j] = assigned_[j] - paused_[j];
      switches += paused_[j];
    }
    return {visible_, switches};
  }

  if (r != 0) return {visible_, 0};

  // Decision round. Joins come from the ants idle at the START of the
  // epoch — a leaver cannot rejoin in its own decision round (the agent
  // automaton commits each ant to exactly one role per epoch).
  const Count joinable = idle_;
  for (std::size_t j = 0; j < k; ++j) {
    if (task_active_[j] == 0) {
      scratch_[j] = 0.0;
      paused_[j] = 0;
      continue;
    }
    const double med2_lack = median_lack_probability(window2_[j]);
    const double p_leave = (1.0 - med1_lack_[j]) * (1.0 - med2_lack) *
                           params_.leave_probability();
    const Count leaves = rng::binomial(gen_, assigned_[j], p_leave);
    assigned_[j] -= leaves;
    idle_ += leaves;
    switches += leaves + paused_[j];
    scratch_[j] = med1_lack_[j] * med2_lack;
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
