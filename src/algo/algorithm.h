// Algorithm interfaces for the two execution engines.
//
// Every algorithm in this library exists in up to two equivalent forms:
//
//  * AgentAlgorithm — the literal per-ant automaton from the paper. The agent
//    engine owns the assignment vector; the algorithm owns whatever per-ant
//    memory the paper's pseudocode keeps (constant per ant) and rewrites the
//    assignments once per round. This form supports per-ant adversaries,
//    correlated noise and memory-limited variants.
//
//  * AggregateKernel — the exact count-level Markov kernel induced by the
//    automaton when feedback is i.i.d. across ants: per-ant decisions become
//    Binomial / Multinomial / Poisson-binomial draws over behavioural
//    classes. No mean-field approximation is involved; the count process has
//    exactly the law of the agent simulation (tests/aggregate_agent_match
//    checks this). This form runs colonies of millions of ants in
//    microseconds per round.
//
// Timing convention (paper §2.1): round t's feedback describes the loads at
// time t-1; the assignment an algorithm writes during round t is the load
// W_t. Rounds are numbered from t = 1.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/allocation.h"
#include "core/demand.h"
#include "core/types.h"
#include "noise/feedback_model.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"

namespace antalloc {

// Per-round feedback oracle handed to agent algorithms. Draws are
// deterministic in (seed, round, ant, task), so re-sampling the same cell
// returns the same value and runs are reproducible under any thread order.
//
// Task lifecycle: `active_mask` (bit j set = task j active) gates every
// draw. An inactive (dormant) task answers unconditional overload — the
// signal that makes every automaton in this library vacate a task — so any
// algorithm that only joins on lack and leaves on overload handles task
// death with no extra per-ant state. The default mask is all-active.
//
// Stream: cell (ant, j) draws from Xoshiro256(hash_words(seed, t, ant, j)).
// The constructor hoists what does not depend on the ant: the round key
// hash_combine(seed, t), each task's hash_key_term(j) and, for models that
// sample the marginal (FeedbackModel::samples_marginal), each task's lack
// probability. A cell then costs one mix for its seed plus, on the marginal
// path, one SplitMix64 step for the generator's first uniform — the same
// bits the full derivation produces (docs/ARCHITECTURE.md, "RNG stream
// policy").
class FeedbackAccess {
 public:
  FeedbackAccess(FeedbackModel& fm, Round t, std::span<const double> deficits,
                 std::span<const Count> demands, std::uint64_t seed,
                 std::uint64_t active_mask = ~0ull)
      : fm_(fm),
        t_(t),
        deficits_(deficits),
        demands_(demands),
        active_mask_(active_mask),
        round_key_(rng::hash_combine(seed, static_cast<std::uint64_t>(t))),
        samples_marginal_(fm.samples_marginal()) {
    if (deficits.size() > static_cast<std::size_t>(kMaxAgentTasks)) {
      throw std::invalid_argument("FeedbackAccess: k exceeds kMaxAgentTasks");
    }
    for (TaskId j = 0; j < num_tasks(); ++j) {
      const auto ju = static_cast<std::size_t>(j);
      task_key_[ju] = rng::hash_key_term(static_cast<std::uint64_t>(j));
      if (samples_marginal_) {
        lack_p_[ju] = fm.lack_probability(t, j, deficits[ju],
                                          static_cast<double>(demands[ju]));
      }
    }
  }

  std::int32_t num_tasks() const {
    return static_cast<std::int32_t>(deficits_.size());
  }

  // Whether task j is active this round. Algorithms with O(k) inner loops
  // (join scans, stimulus updates) should skip inactive tasks.
  bool active(TaskId j) const { return (active_mask_ >> j) & 1; }
  std::uint64_t active_mask() const { return active_mask_; }

  // True demand of task j. In-model algorithms must not consult this (ants
  // cannot know demands, §1); it exists for out-of-model references such as
  // the oracle allocator and for diagnostics.
  Count demand(TaskId j) const { return demands_[static_cast<std::size_t>(j)]; }

  Feedback sample(std::int64_t ant, TaskId j) const {
    if (!active(j)) return Feedback::kOverload;
    return lack_unmasked(ant, ant_key(ant), j) ? Feedback::kLack
                                               : Feedback::kOverload;
  }

  // Bitmask of tasks whose feedback for `ant` is lack (bit j set = lack).
  // Inactive tasks never report lack: the mask is applied once at the end,
  // keeping the per-task sampling loop branch-free (this is the agent
  // engine's hottest path — see bench_perf_engines BM_AgentAntRound).
  std::uint64_t sample_lack_mask(std::int64_t ant) const {
    const std::uint64_t key = ant_key(ant);
    std::uint64_t mask = 0;
    for (TaskId j = 0; j < num_tasks(); ++j) {
      mask |= static_cast<std::uint64_t>(lack_unmasked(ant, key, j)) << j;
    }
    return mask & active_mask_;
  }

 private:
  // hash_words(seed, t, ant) — the per-ant prefix of every cell seed.
  std::uint64_t ant_key(std::int64_t ant) const {
    return rng::hash_combine(round_key_, static_cast<std::uint64_t>(ant));
  }

  // The raw draw, ignoring the lifecycle mask. Callers must mask the result
  // (sample / sample_lack_mask do); for a dormant task it burns one discarded
  // draw, which only lifecycle runs ever pay.
  bool lack_unmasked(std::int64_t ant, std::uint64_t key, TaskId j) const {
    const auto ju = static_cast<std::size_t>(j);
    const std::uint64_t cell = rng::hash_combine_term(key, task_key_[ju]);
    if (samples_marginal_) {
      return rng::Xoshiro256::first_uniform(cell) < lack_p_[ju];
    }
    rng::Xoshiro256 gen(cell);
    return fm_.sample(t_, j, ant, deficits_[ju],
                      static_cast<double>(demands_[ju]),
                      gen) == Feedback::kLack;
  }

  FeedbackModel& fm_;
  Round t_;
  std::span<const double> deficits_;
  std::span<const Count> demands_;
  std::uint64_t active_mask_;
  std::uint64_t round_key_;  // hash_combine(seed, t)
  bool samples_marginal_;
  std::array<std::uint64_t, kMaxAgentTasks> task_key_{};  // hash_key_term(j)
  std::array<double, kMaxAgentTasks> lack_p_{};  // marginal models only
};

class BatchedAgentRunner;  // algo/batched.h

// Per-ant automaton form.
class AgentAlgorithm {
 public:
  virtual ~AgentAlgorithm() = default;
  virtual std::string_view name() const = 0;

  // Prepares per-ant state for a colony of n ants over k tasks whose round-0
  // assignment is `initial` (size n; kIdle or a task id).
  virtual void reset(Count n_ants, std::int32_t k,
                     std::span<const TaskId> initial, std::uint64_t seed) = 0;

  // Executes round t: reads feedback through `fb` (which reflects the loads
  // at time t-1), reads the round-(t-1) occupation from `prev` and writes
  // the round-t occupation of EVERY ant to `next` (same size n, disjoint
  // storage). The engine double-buffers the two spans, so an implementation
  // that keeps an ant in place must still write prev[i] through to next[i].
  virtual void step(Round t, const FeedbackAccess& fb,
                    std::span<const TaskId> prev, std::span<TaskId> next) = 0;

  // Optional batched fast path (algo/batched.h): a count-level runner with
  // exactly this automaton's law, used by the agent engine when
  // AgentSimConfig::sampling is kBatched and the noise is i.i.d. across
  // ants. Returning nullptr (the default) means "per-ant only"; the engine
  // then falls back silently. The returned runner is owned by the algorithm
  // and must stay valid for the algorithm's lifetime.
  virtual BatchedAgentRunner* batched_runner() { return nullptr; }

  // Lifecycle hook: called by the engine before step(t) whenever the
  // active-task set changes. By the time it runs the engine has already
  // flushed every worker of a dying task to kIdle in the assignment vector;
  // feedback for inactive tasks is unconditional overload from here on.
  // The default is a no-op — sufficient for memoryless algorithms, whose
  // whole state IS the assignment vector. Algorithms that commit ants to a
  // task across a phase must drop commitments to inactive tasks here; the
  // contract (mirrored by the aggregate kernels' flushed pools) is that a
  // worker flushed mid-phase stays dormant until the next phase boundary.
  virtual void on_lifecycle(Round t, const ActiveSet& active) {
    (void)t;
    (void)active;
  }
};

// Count-level kernel form.
class AggregateKernel {
 public:
  struct RoundOutput {
    std::span<const Count> loads;  // W(j)_t: ants performing task j in round t
    std::int64_t switches = 0;     // assignment changes vs round t-1 (approx.)
  };

  virtual ~AggregateKernel() = default;
  virtual std::string_view name() const = 0;

  // True when this kernel can simulate under the given model exactly.
  virtual bool supports(const FeedbackModel& fm) const {
    return fm.iid_across_ants();
  }

  virtual void reset(const Allocation& initial, std::uint64_t seed) = 0;
  virtual RoundOutput step(Round t, const DemandVector& demands,
                           const FeedbackModel& fm) = 0;

  // Lifecycle transition: called by the engine before step(t) whenever the
  // active-task set changes. A kernel must flush every worker of a newly
  // inactive task toward its idle pool, zero that task's visible load, and
  // skip inactive tasks in its O(k) inner loops until they reactivate.
  // Returns the number of VISIBLE workers flushed (the engine counts them
  // as switches; ants already sitting out a phase were idle-visible and do
  // not switch again). To stay distributionally equivalent to the agent
  // engine, flushed ants must not re-enter the joinable pool until the
  // kernel's next phase boundary. Default: throws — kernels opt in, and a
  // lifecycle schedule on a kernel without support must fail loudly rather
  // than silently keep dead tasks staffed.
  virtual Count apply_lifecycle(Round t, const ActiveSet& active);
};

inline Count AggregateKernel::apply_lifecycle(Round /*t*/,
                                              const ActiveSet& /*active*/) {
  throw std::logic_error("aggregate kernel '" + std::string(name()) +
                         "' does not support task lifecycle; use the agent "
                         "engine for schedules with task birth/death");
}

}  // namespace antalloc
