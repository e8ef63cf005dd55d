#include "metrics/convergence.h"

#include <algorithm>
#include <cmath>

namespace antalloc {
namespace {

bool in_band(const Trace& trace, std::size_t i, const DemandVector& demands,
             double gamma) {
  for (TaskId j = 0; j < trace.num_tasks(); ++j) {
    const double band = 5.0 * gamma * static_cast<double>(demands[j]) + 3.0;
    if (std::abs(static_cast<double>(trace.deficit_at(i, j))) > band) {
      return false;
    }
  }
  return true;
}

}  // namespace

void ConvergenceAccumulator::observe(Round t, std::span<const Count> loads,
                                     const DemandVector& demands) {
  bool ok = true;
  for (TaskId j = 0; j < demands.num_tasks(); ++j) {
    ok = ok && !outside_band(demands[j] - loads[static_cast<std::size_t>(j)],
                             demands[j], gamma_);
  }
  observe(t, ok);
}

ConvergenceColumns::ConvergenceColumns(std::int32_t k)
    : k_(static_cast<std::size_t>(k)), cols_(4 * k_, 0) {
  std::fill_n(cols_.begin(), k_, Round{-1});
}

ConvergenceStats ConvergenceColumns::stats(std::int32_t j) const {
  const std::size_t i = static_cast<std::size_t>(j);
  ConvergenceStats out;
  out.first_in_band = cols_[i];
  out.last_violation = cols_[k_ + i];
  const Round inside = cols_[2 * k_ + i];
  const Round total = cols_[3 * k_ + i];
  if (out.first_in_band >= 0 && total > 0) {
    out.occupancy_after_entry =
        static_cast<double>(inside) / static_cast<double>(total);
  }
  return out;
}

ConvergenceStats measure_convergence(const Trace& trace,
                                     const DemandSchedule& schedule,
                                     double gamma) {
  ConvergenceStats stats;
  std::size_t entry_index = 0;
  std::int64_t inside_after_entry = 0;
  std::int64_t total_after_entry = 0;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Round t = trace.round_at(i);
    const bool ok = in_band(trace, i, schedule.demands_at(t), gamma);
    if (ok && stats.first_in_band < 0) {
      stats.first_in_band = t;
      entry_index = i;
    }
    if (!ok) stats.last_violation = t;
  }
  if (stats.first_in_band >= 0) {
    for (std::size_t i = entry_index; i < trace.size(); ++i) {
      ++total_after_entry;
      if (in_band(trace, i, schedule.demands_at(trace.round_at(i)), gamma)) {
        ++inside_after_entry;
      }
    }
    stats.occupancy_after_entry =
        total_after_entry > 0
            ? static_cast<double>(inside_after_entry) /
                  static_cast<double>(total_after_entry)
            : 0.0;
  }
  return stats;
}

ConvergenceStats measure_convergence(const Trace& trace,
                                     const DemandVector& demands,
                                     double gamma) {
  return measure_convergence(trace, DemandSchedule(demands), gamma);
}

}  // namespace antalloc
