// Deficit traces: a strided recording of per-task deficits and per-round
// regret, kept compact so million-round runs stay cheap to store.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace antalloc {

class Trace {
 public:
  Trace() = default;

  // Records every `stride`-th round; stride == 0 disables recording.
  Trace(std::int32_t num_tasks, Round stride);

  void record(Round t, std::span<const Count> deficits, Count regret) {
    if (stride_ > 0 && t % stride_ == 0) append(t, deficits, regret);
  }

  bool enabled() const { return stride_ > 0; }
  std::int32_t num_tasks() const { return k_; }
  std::size_t size() const { return rounds_.size(); }
  Round round_at(std::size_t i) const { return rounds_[i]; }
  Count regret_at(std::size_t i) const { return regret_[i]; }

  // Deficit of task j at the i-th recorded round.
  Count deficit_at(std::size_t i, TaskId j) const {
    return deficits_[i * static_cast<std::size_t>(k_) +
                     static_cast<std::size_t>(j)];
  }

  // Full deficit series of one task (copied out; used by oscillation stats).
  std::vector<Count> task_series(TaskId j) const;

 private:
  void append(Round t, std::span<const Count> deficits, Count regret);

  std::int32_t k_ = 0;
  Round stride_ = 0;
  std::vector<Round> rounds_;
  std::vector<Count> deficits_;  // size() * k_, row-major
  std::vector<Count> regret_;
};

}  // namespace antalloc
