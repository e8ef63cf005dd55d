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

#include <algorithm>
#include <array>
#include <bit>
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
#include "rng/lack_lane.h"
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
// probability as an integer threshold (rng::lack_threshold), the same bits
// the full derivation produces (docs/ARCHITECTURE.md, "Per-ant stream").
// sample_lack_masks draws a block of ants at once through the SIMD lane of
// rng/lack_lane.h when the CPU has one, and hashes only uncertain cells: a
// task whose threshold is 2^53 (p >= 1) lacks for every ant and one whose
// threshold is 0 (p <= 0 or NaN) for none. That cannot change a bit, since
// x >> 11 < 2^53 holds, and x >> 11 < 0 fails, for every 64-bit output x.
// The constructor records those tasks as sure_lack_ and sure_over_; the
// block draw ORs in the first and skips both. sample and sample_lack_mask
// keep the full per-cell chain: they are the reference the block draw is
// tested against.
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
    if (num_tasks() < 64) live_mask_ &= (1ull << num_tasks()) - 1;
    for (TaskId j = 0; j < num_tasks(); ++j) {
      const auto ju = static_cast<std::size_t>(j);
      task_key_[ju] = rng::hash_key_term(static_cast<std::uint64_t>(j));
      if (samples_marginal_) {
        lack_below_[ju] = rng::lack_threshold(fm.lack_probability(
            t, j, deficits[ju], static_cast<double>(demands[ju])));
        sure_lack_ |= std::uint64_t{lack_below_[ju] == rng::kAlwaysLack} << j;
        sure_over_ |= std::uint64_t{lack_below_[ju] == 0} << j;
      }
    }
    sure_lack_ &= live_mask_;
    sure_over_ &= live_mask_;
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
  // keeping the per-task sampling loop branch-free. This is the single-ant
  // form and the reference for the block draws below.
  std::uint64_t sample_lack_mask(std::int64_t ant) const {
    const std::uint64_t key = ant_key(ant);
    std::uint64_t mask = 0;
    for (TaskId j = 0; j < num_tasks(); ++j) {
      mask |= static_cast<std::uint64_t>(lack_unmasked(ant, key, j)) << j;
    }
    return mask & active_mask_;
  }

  // out[a] == sample_lack_mask(first_ant + a) & want[a], bit for bit: the
  // lack masks of a block of ants, restricted to the tasks the caller reads
  // (e.g. 1 << ct for a working ant). Only the wanted uncertain cells are
  // hashed; wanted sure_lack_ tasks are ORed in and sure_over_ ones stay 0.
  // Marginal models run `lane`, by default the widest SIMD lane this CPU
  // has; without one (nullptr), and for every other model, this is the
  // per-ant loop. Tests pass each lane by name. Throws
  // std::invalid_argument unless want.size() == out.size().
  void sample_lack_masks(std::int64_t first_ant,
                         std::span<const std::uint64_t> want,
                         std::span<std::uint64_t> out,
                         rng::LackLane lane = rng::kLackLane) const {
    if (want.size() != out.size()) {
      throw std::invalid_argument(
          "FeedbackAccess::sample_lack_masks: want and out differ in size");
    }
    const std::uint64_t uncertain = live_mask_ & ~(sure_lack_ | sure_over_);
    if (samples_marginal_ && lane != nullptr) {
      const auto k = static_cast<std::size_t>(num_tasks());
      const rng::LackStream stream{
          .round_key = round_key_,
          .task_keys = std::span(task_key_).first(k),
          .thresholds = std::span(lack_below_).first(k),
          .tasks = uncertain};
      lane(stream, static_cast<std::uint64_t>(first_ant), want, out);
    } else {
      for (std::size_t a = 0; a < out.size(); ++a) {
        std::uint64_t bits = want[a] & uncertain;
        std::uint64_t mask = 0;
        if (bits != 0) {
          const std::int64_t ant = first_ant + static_cast<std::int64_t>(a);
          const std::uint64_t key = ant_key(ant);
          for (; bits != 0; bits &= bits - 1) {
            const auto j = static_cast<TaskId>(std::countr_zero(bits));
            mask |= static_cast<std::uint64_t>(lack_unmasked(ant, key, j))
                    << j;
          }
        }
        out[a] = mask;
      }
    }
    if (sure_lack_ != 0) {
      for (std::size_t a = 0; a < out.size(); ++a) {
        out[a] |= want[a] & sure_lack_;
      }
    }
  }

  // The block draw's width: for_each_lack_block hands fn at most this many
  // ants at a time.
  static constexpr std::size_t kLackBlock = 64;

  // Calls fn(base, masks) for the blocks of ants 0..n-1 in order, base = 0,
  // 64, 128, ...; masks (a std::span<const std::uint64_t> of
  // min(64, n - base) entries, stack storage valid only during the call)
  // holds sample_lack_mask(base + a) & want(base + a). Every want(i) of a
  // block is read before fn sees that block, so want must not depend on
  // what fn writes for the same block.
  template <class WantFn, class Fn>
  void for_each_lack_block(std::int64_t n, WantFn&& want, Fn&& fn) const {
    std::array<std::uint64_t, kLackBlock> wants{};
    std::array<std::uint64_t, kLackBlock> masks{};
    for (std::int64_t base = 0; base < n; base += kLackBlock) {
      const auto len = static_cast<std::size_t>(
          std::min<std::int64_t>(kLackBlock, n - base));
      for (std::size_t a = 0; a < len; ++a) {
        wants[a] = want(base + static_cast<std::int64_t>(a));
      }
      sample_lack_masks(base, std::span(wants).first(len),
                        std::span(masks).first(len));
      fn(base, std::span<const std::uint64_t>(masks).first(len));
    }
  }

  // Calls fn(i, lack_mask) for ants i = 0..n-1 in order, where lack_mask is
  // sample_lack_mask(i) & want(i): for_each_lack_block, one ant at a time.
  // want must not depend on what fn writes for lower-numbered ants of the
  // same 64-ant block.
  template <class WantFn, class Fn>
  void for_each_lack_mask(std::int64_t n, WantFn&& want, Fn&& fn) const {
    for_each_lack_block(
        n, want, [&](std::int64_t base, std::span<const std::uint64_t> masks) {
          // Bound once per block: called through the capture, GCC reloads
          // the reference for every ant, which cost precise-adversarial
          // about a fifth of its rate.
          Fn& per_ant = fn;
          for (std::size_t a = 0; a < masks.size(); ++a) {
            per_ant(base + static_cast<std::int64_t>(a), masks[a]);
          }
        });
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
      return (rng::Xoshiro256::first_output(cell) >> 11) < lack_below_[ju];
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
  std::uint64_t live_mask_ = active_mask_;  // active tasks below k
  std::uint64_t round_key_;  // hash_combine(seed, t)
  bool samples_marginal_;
  std::array<std::uint64_t, kMaxAgentTasks> task_key_{};  // hash_key_term(j)
  // lack_threshold(p_j), marginal models only.
  std::array<std::uint64_t, kMaxAgentTasks> lack_below_{};
  // Live tasks whose threshold is kAlwaysLack / 0: certain for every ant.
  std::uint64_t sure_lack_ = 0;
  std::uint64_t sure_over_ = 0;
};

// The tasks whose feedback an ant on `ct` reads in the paper's automata:
// every task while idle (the join scan), only its own while working (the
// leave test). A `want` mask for FeedbackAccess::for_each_lack_mask.
constexpr std::uint64_t own_task_or_all(TaskId ct) {
  return ct == kIdle ? ~0ull : 1ull << ct;
}

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
