// Convergence-time measurement: when does a run first enter — and last
// leave — the Theorem 3.1 deficit band? [Cornejo et al. DISC'14] analyze
// task allocation through convergence time; these helpers connect our regret
// view to theirs and power bench E16.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/demand.h"
#include "metrics/trace.h"

namespace antalloc {

struct ConvergenceStats {
  // First recorded round at which every task's |deficit| <= 5γ·d(j)+3.
  // -1 if never.
  Round first_in_band = -1;
  // Last recorded round at which some task violated the band; 0 if never.
  Round last_violation = 0;
  // Fraction of recorded rounds (after first_in_band) spent inside the band.
  double occupancy_after_entry = 0.0;
  bool converged() const { return first_in_band >= 0; }
};

// Theorem 3.1 band test for one task: |Δ(j)| > 5γ·d(j) + 3.
inline bool outside_band(Count deficit, Count demand, double gamma) {
  return std::abs(static_cast<double>(deficit)) >
         5.0 * gamma * static_cast<double>(demand) + 3.0;
}

// The band tracks of k tasks, each tested alone, as structure-of-arrays
// columns folded one round at a time: what "convergence-per-task@K" keeps,
// and (k = 1, fed the joint flag) ConvergenceAccumulator. The updates are
// mask selects, since whether a task is in its band is a coin flip in the
// grey zone. The entry round itself counts toward occupancy, matching the
// trace scan (its occupancy loop starts at the entry index).
class ConvergenceColumns {
 public:
  explicit ConvergenceColumns(std::int32_t k = 0);

  // Folds round t; outside[j] != 0 where track j violated its band.
  void add(Round t, std::span<const std::uint8_t> outside) {
    Round* first_in_band = cols_.data();
    Round* last_violation = first_in_band + k_;
    Round* inside_after_entry = last_violation + k_;
    Round* total_after_entry = inside_after_entry + k_;
    for (std::size_t j = 0; j < outside.size(); ++j) {
      const Round in = outside[j] == 0;
      const Round enter = -(in & Round{first_in_band[j] < 0});
      first_in_band[j] = (t & enter) | (first_in_band[j] & ~enter);
      last_violation[j] = (last_violation[j] & -in) | (t & (in - 1));
      const Round entered = first_in_band[j] >= 0;
      total_after_entry[j] += entered;
      inside_after_entry[j] += entered & in;
    }
  }

  ConvergenceStats stats(std::int32_t j) const;

 private:
  std::size_t k_ = 0;
  // first_in_band, last_violation, inside_after_entry, total_after_entry:
  // k entries each, in one block.
  std::vector<Round> cols_;
};

// Streaming form: folds one round at a time in O(1) state, no retained
// trace. This is what the "convergence" registry metric (metrics/metric.h)
// drives with the round summary's joint band flag; the trace-scanning
// measure_convergence below stays as the post-hoc oracle the equivalence
// tests compare it against.
class ConvergenceAccumulator {
 public:
  explicit ConvergenceAccumulator(double gamma) : gamma_(gamma) {}

  // Folds round t given whether every task was inside its band.
  void observe(Round t, bool ok) {
    const std::uint8_t outside = ok ? 0 : 1;
    track_.add(t, {&outside, 1});
  }

  // Folds round t: loads are W(j)_t, demands the vector in force.
  void observe(Round t, std::span<const Count> loads,
               const DemandVector& demands);

  ConvergenceStats stats() const { return track_.stats(0); }

 private:
  double gamma_;
  ConvergenceColumns track_{1};
};

// Scans a trace against a (possibly time-varying) demand schedule.
ConvergenceStats measure_convergence(const Trace& trace,
                                     const DemandSchedule& schedule,
                                     double gamma);

ConvergenceStats measure_convergence(const Trace& trace,
                                     const DemandVector& demands,
                                     double gamma);

}  // namespace antalloc
