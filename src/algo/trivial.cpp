#include "algo/trivial.h"

#include <bit>
#include <stdexcept>

#include "core/bits.h"
#include "rng/binomial.h"
#include "rng/multinomial.h"
#include "rng/poisson_binomial.h"

namespace antalloc {

// ---------------------------------------------------------------------------
// Agent form
// ---------------------------------------------------------------------------

ReactiveAgent::ReactiveAgent(ReactiveParams params, std::string name)
    : params_(params), name_(std::move(name)) {
  if (!(params_.leave_probability > 0.0) || params_.leave_probability > 1.0) {
    throw std::invalid_argument("ReactiveParams: leave_probability in (0, 1]");
  }
}

void ReactiveAgent::reset(Count /*n_ants*/, std::int32_t k,
                          std::span<const TaskId> /*initial*/,
                          std::uint64_t seed) {
  if (k > kMaxAgentTasks) {
    throw std::invalid_argument("ReactiveAgent: k exceeds kMaxAgentTasks");
  }
  seed_ = seed;
  k_ = k;
}

void ReactiveAgent::step(Round t, const FeedbackAccess& fb,
                         std::span<const TaskId> prev,
                         std::span<TaskId> next) {
  const auto n = static_cast<std::int64_t>(prev.size());
  const auto wanted = [&](std::int64_t i) {
    return own_task_or_all(prev[static_cast<std::size_t>(i)]);
  };
  fb.for_each_lack_mask(n, wanted, [&](std::int64_t i, std::uint64_t lack) {
    const auto iu = static_cast<std::size_t>(i);
    const TaskId ct = prev[iu];
    TaskId out = ct;
    rng::Xoshiro256 gen(rng::hash_words(seed_ ^ 0x7121u,
                                        static_cast<std::uint64_t>(t),
                                        static_cast<std::uint64_t>(i)));
    if (ct == kIdle) {
      if (lack != 0) {
        const int pick = static_cast<int>(
            gen.uniform_below(static_cast<std::uint64_t>(std::popcount(lack))));
        out = static_cast<TaskId>(nth_set_bit(lack, pick));
      }
    } else if (lack == 0 && gen.bernoulli(params_.leave_probability)) {
      out = kIdle;
    }
    next[iu] = out;
  });
}

// ---------------------------------------------------------------------------
// Aggregate form
// ---------------------------------------------------------------------------

ReactiveAggregate::ReactiveAggregate(ReactiveParams params, std::string name)
    : params_(params), name_(std::move(name)) {
  if (!(params_.leave_probability > 0.0) || params_.leave_probability > 1.0) {
    throw std::invalid_argument("ReactiveParams: leave_probability in (0, 1]");
  }
}

void ReactiveAggregate::reset(const Allocation& initial, std::uint64_t seed) {
  gen_ = rng::Xoshiro256(rng::hash_combine(seed, 0x7122u));
  loads_.assign(initial.loads().begin(), initial.loads().end());
  prev_loads_ = loads_;
  scratch_.assign(loads_.size(), 0.0);
  join_marginals_.assign(loads_.size(), 0.0);
  joins_.assign(loads_.size(), 0);
  task_active_.assign(loads_.size(), 1);
  idle_ = initial.idle();
}

Count ReactiveAggregate::apply_lifecycle(Round /*t*/, const ActiveSet& active) {
  Count switched = 0;
  for (std::size_t j = 0; j < loads_.size(); ++j) {
    const bool now_active = active[static_cast<TaskId>(j)];
    if (!now_active && task_active_[j] != 0) {
      // Flushed workers go straight to the idle pool: an ant idle at the
      // start of a round may join in that round, exactly as a per-ant
      // flushed automaton would.
      switched += loads_[j];
      idle_ += loads_[j];
      loads_[j] = 0;
    }
    task_active_[j] = now_active ? 1 : 0;
  }
  return switched;
}

AggregateKernel::RoundOutput ReactiveAggregate::step(
    Round t, const DemandVector& demands, const FeedbackModel& fm) {
  const auto k = static_cast<std::size_t>(demands.num_tasks());
  std::int64_t switches = 0;
  prev_loads_ = loads_;

  // Per-ant lack probabilities from the previous round's loads. Dormant
  // tasks report unconditional overload: join probability zero.
  for (std::size_t j = 0; j < k; ++j) {
    if (task_active_[j] == 0) {
      scratch_[j] = 0.0;
      continue;
    }
    const auto tj = static_cast<TaskId>(j);
    const double deficit = static_cast<double>(demands[tj] - prev_loads_[j]);
    scratch_[j] = fm.lack_probability(t, tj, deficit,
                                      static_cast<double>(demands[tj]));
  }

  // Only ants idle at the START of the round may join this round — a worker
  // that leaves goes idle and joins next round at the earliest, exactly as
  // in the per-ant automaton (engine equivalence depends on this ordering).
  const Count joinable = idle_;

  // Workers leave on overload (each sees its own independent sample).
  for (std::size_t j = 0; j < k; ++j) {
    if (task_active_[j] == 0) continue;  // nothing assigned to a dormant task
    const double p_leave = (1.0 - scratch_[j]) * params_.leave_probability;
    const Count leaves = rng::binomial(gen_, loads_[j], p_leave);
    loads_[j] -= leaves;
    idle_ += leaves;
    switches += leaves;
  }

  // Idle ants join a uniformly random task whose (single) sample was lack.
  rng::uniform_choice_marginals_into(scratch_, join_marginals_,
                                     marginals_ws_);
  rng::multinomial_rest_into(gen_, joinable, join_marginals_, joins_);
  for (std::size_t j = 0; j < k; ++j) {
    loads_[j] += joins_[j];
    idle_ -= joins_[j];
    switches += joins_[j];
  }
  return {loads_, switches};
}

// ---------------------------------------------------------------------------
// Sequential model
// ---------------------------------------------------------------------------

SimResult run_reactive_sequential(ReactiveParams params, Count n_ants,
                                  const DemandVector& demands, Round rounds,
                                  FeedbackModel& fm, const Allocation& initial,
                                  MetricsRecorder::Options metrics,
                                  std::uint64_t seed) {
  if (initial.n_ants() != n_ants) {
    throw std::invalid_argument("run_reactive_sequential: n mismatch");
  }
  const std::int32_t k = demands.num_tasks();
  std::vector<Count> loads(initial.loads().begin(), initial.loads().end());
  Count idle = initial.idle();
  rng::Xoshiro256 gen(rng::hash_combine(seed, 0x5e0ull));
  MetricsRecorder recorder(k, n_ants, metrics);
  std::vector<double> deficits(static_cast<std::size_t>(k), 0.0);

  for (Round t = 1; t <= rounds; ++t) {
    for (std::int32_t j = 0; j < k; ++j) {
      deficits[static_cast<std::size_t>(j)] =
          static_cast<double>(demands[j] - loads[static_cast<std::size_t>(j)]);
    }
    // Pick one uniformly random ant: idle with probability idle/n, else a
    // worker of task j with probability loads[j]/n. One sequential round
    // moves at most one ant, so the round's switch count is 0 or 1.
    std::int64_t switched = 0;
    const auto pick =
        static_cast<Count>(gen.uniform_below(static_cast<std::uint64_t>(n_ants)));
    if (pick < idle) {
      // Idle ant: sample every task, join a uniform lack task if any.
      std::uint64_t lack = 0;
      for (TaskId j = 0; j < k; ++j) {
        const double p = fm.lack_probability(
            t, j, deficits[static_cast<std::size_t>(j)],
            static_cast<double>(demands[j]));
        if (gen.bernoulli(p)) lack |= (1ull << j);
      }
      if (lack != 0) {
        const int choice = static_cast<int>(
            gen.uniform_below(static_cast<std::uint64_t>(std::popcount(lack))));
        const TaskId j = nth_set_bit(lack, choice);
        ++loads[static_cast<std::size_t>(j)];
        --idle;
        switched = 1;
      }
    } else {
      // Worker ant of the task its index falls into.
      Count acc = idle;
      for (TaskId j = 0; j < k; ++j) {
        acc += loads[static_cast<std::size_t>(j)];
        if (pick < acc) {
          const double p = fm.lack_probability(
              t, j, deficits[static_cast<std::size_t>(j)],
              static_cast<double>(demands[j]));
          if (!gen.bernoulli(p) &&
              gen.bernoulli(params.leave_probability)) {  // overload observed
            --loads[static_cast<std::size_t>(j)];
            ++idle;
            switched = 1;
          }
          break;
        }
      }
    }
    recorder.record_round(RoundView{.t = t,
                                    .loads = loads,
                                    .demands = &demands,
                                    .switches = switched});
  }
  return recorder.finish(loads);
}

SimResult run_trivial_sequential(Count n_ants, const DemandVector& demands,
                                 Round rounds, FeedbackModel& fm,
                                 const Allocation& initial,
                                 MetricsRecorder::Options metrics,
                                 std::uint64_t seed) {
  return run_reactive_sequential(ReactiveParams{.leave_probability = 1.0},
                                 n_ants, demands, rounds, fm, initial, metrics,
                                 seed);
}

}  // namespace antalloc
