// Terminal plotting: compact ASCII line plots for deficit traces and regret series, so examples and benches can show trajectories
// without external tooling.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "metrics/trace.h"

namespace antalloc {

struct PlotOptions {
  int width = 72;
  int height = 16;
  std::string title{};
  // y-range; NaN = auto from data.
  double y_min = std::numeric_limits<double>::quiet_NaN();
  double y_max = std::numeric_limits<double>::quiet_NaN();
  // Optional horizontal guide lines (e.g. the ±5γd band), drawn with '-'.
  std::vector<double> guides{};
};

// Renders one or more series (same x-axis, downsampled to `width` columns)
// as an ASCII chart. Series are drawn with '*', '+', 'o', 'x' in order.
std::string plot_series(std::span<const std::vector<double>> series,
                        const PlotOptions& options = {});

// Single-series overload.
std::string plot_series(std::span<const double> series,
                        const PlotOptions& options = {});

// Convenience: plot the deficit series of `task` from a trace, with the
// ±(5γd+3) band drawn as guides.
std::string plot_trace_deficit(const Trace& trace, TaskId task, double gamma,
                               Count demand, const PlotOptions& base = {});

}  // namespace antalloc
