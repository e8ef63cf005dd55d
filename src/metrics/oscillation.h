// Oscillation statistics over a recorded deficit series.
//
// Theorem 3.3 predicts that constant-memory algorithms must oscillate once
// deficits are small, and Appendix D.2 predicts Θ(n)-amplitude full-colony
// oscillations for the trivial synchronous algorithm. These statistics make
// both claims measurable: sign changes per recorded step, peak amplitude,
// and the mean absolute deficit.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/types.h"
#include "metrics/trace.h"

namespace antalloc {

struct OscillationStats {
  std::int64_t samples = 0;
  std::int64_t zero_crossings = 0;  // strict sign changes of the deficit
  Count max_abs_deficit = 0;
  double mean_abs_deficit = 0.0;
  double mean_deficit = 0.0;

  // Crossings per recorded sample; ~0 for a converged run, Θ(1) for a
  // full-colony oscillation.
  double crossing_rate() const {
    return samples > 1 ? static_cast<double>(zero_crossings) /
                             static_cast<double>(samples - 1)
                       : 0.0;
  }
};

// The oscillation state of k tasks as structure-of-arrays columns, folded
// one deficit row per round, branch-free: what the "oscillation" and
// "oscillation-per-task@K" registry metrics (metrics/metric.h) share. A
// strict sign change is a crossing; a zero sample keeps the previous sign.
class OscillationColumns {
 public:
  explicit OscillationColumns(std::int32_t k = 0);

  // Folds one round: deficits[j] is task j's deficit.
  void add(std::span<const Count> deficits) {
    ++samples_;
    Count* zero_crossings = counts_.data();
    Count* max_abs = zero_crossings + k_;
    Count* prev_sign = max_abs + k_;
    double* abs_sum = sums_.data();
    double* sum = abs_sum + k_;
    for (std::size_t j = 0; j < deficits.size(); ++j) {
      const Count delta = deficits[j];
      const Count a = std::abs(delta);
      max_abs[j] = a > max_abs[j] ? a : max_abs[j];
      abs_sum[j] += static_cast<double>(a);
      sum[j] += static_cast<double>(delta);
      const Count sign = Count{delta > 0} - Count{delta < 0};
      zero_crossings[j] += sign * prev_sign[j] < 0;
      prev_sign[j] = sign | (prev_sign[j] & -Count{sign == 0});
    }
  }

  std::int32_t num_tasks() const { return static_cast<std::int32_t>(k_); }
  OscillationStats stats(std::int32_t j) const;

 private:
  std::size_t k_ = 0;
  std::int64_t samples_ = 0;
  std::vector<Count> counts_;  // zero_crossings, max_abs, prev_sign: k each
  std::vector<double> sums_;   // abs_sum, sum: k each
};

// Streaming form for one series: one column, fed a sample at a time.
// analyze_series below is this over a complete span and serves, together
// with analyze_trace_task, as the post-hoc oracle the equivalence tests
// compare the streaming metrics against.
class OscillationAccumulator {
 public:
  void add(Count deficit) { column_.add({&deficit, 1}); }

  std::int64_t samples() const { return stats().samples; }
  OscillationStats stats() const { return column_.stats(0); }

 private:
  OscillationColumns column_{1};
};

OscillationStats analyze_series(std::span<const Count> deficits);

// Trace-based path: analyze task j of a trace via a full Trace::task_series
// copy, skipping the first `skip` samples (warmup). Kept as the test oracle
// for the streaming accumulator — new measurement code should stream.
OscillationStats analyze_trace_task(const Trace& trace, TaskId j,
                                    std::size_t skip = 0);

}  // namespace antalloc
