#include "metrics/oscillation.h"

#include <vector>

namespace antalloc {

OscillationColumns::OscillationColumns(std::int32_t k)
    : k_(static_cast<std::size_t>(k)), counts_(3 * k_, 0), sums_(2 * k_, 0.0) {}

OscillationStats OscillationColumns::stats(std::int32_t j) const {
  const std::size_t i = static_cast<std::size_t>(j);
  OscillationStats stats;
  stats.samples = samples_;
  if (samples_ == 0) return stats;
  stats.zero_crossings = counts_[i];
  stats.max_abs_deficit = counts_[k_ + i];
  stats.mean_abs_deficit = sums_[i] / static_cast<double>(samples_);
  stats.mean_deficit = sums_[k_ + i] / static_cast<double>(samples_);
  return stats;
}

OscillationStats analyze_series(std::span<const Count> deficits) {
  OscillationAccumulator acc;
  for (const Count delta : deficits) acc.add(delta);
  return acc.stats();
}

OscillationStats analyze_trace_task(const Trace& trace, TaskId j,
                                    std::size_t skip) {
  std::vector<Count> series = trace.task_series(j);
  if (skip >= series.size()) return OscillationStats{};
  return analyze_series(
      std::span<const Count>(series.data() + skip, series.size() - skip));
}

}  // namespace antalloc
