#include "io/plot.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace antalloc {
namespace {

constexpr char kMarkers[] = {'*', '+', 'o', 'x'};

// Downsamples `series` to `width` points by bucket-averaging.
std::vector<double> resample(std::span<const double> series, int width) {
  std::vector<double> out(static_cast<std::size_t>(width), 0.0);
  const auto n = series.size();
  for (int c = 0; c < width; ++c) {
    const std::size_t lo = n * static_cast<std::size_t>(c) /
                           static_cast<std::size_t>(width);
    std::size_t hi = n * static_cast<std::size_t>(c + 1) /
                     static_cast<std::size_t>(width);
    hi = std::max(hi, lo + 1);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi && i < n; ++i) sum += series[i];
    out[static_cast<std::size_t>(c)] =
        sum / static_cast<double>(std::min(hi, n) - lo);
  }
  return out;
}

}  // namespace

std::string plot_series(std::span<const std::vector<double>> series,
                        const PlotOptions& options) {
  if (series.empty() || series[0].empty()) {
    throw std::invalid_argument("plot_series: empty input");
  }
  const int width = std::max(8, options.width);
  const int height = std::max(4, options.height);

  double lo = options.y_min;
  double hi = options.y_max;
  if (std::isnan(lo) || std::isnan(hi)) {
    double dmin = std::numeric_limits<double>::infinity();
    double dmax = -std::numeric_limits<double>::infinity();
    for (const auto& s : series) {
      for (const double v : s) {
        dmin = std::min(dmin, v);
        dmax = std::max(dmax, v);
      }
    }
    for (const double g : options.guides) {
      dmin = std::min(dmin, g);
      dmax = std::max(dmax, g);
    }
    if (std::isnan(lo)) lo = dmin;
    if (std::isnan(hi)) hi = dmax;
  }
  if (hi <= lo) hi = lo + 1.0;

  std::vector<std::string> canvas(
      static_cast<std::size_t>(height),
      std::string(static_cast<std::size_t>(width), ' '));
  auto row_of = [&](double y) {
    const double frac = (y - lo) / (hi - lo);
    const int r = static_cast<int>(
        std::lround((1.0 - frac) * static_cast<double>(height - 1)));
    return std::clamp(r, 0, height - 1);
  };

  for (const double g : options.guides) {
    auto& row = canvas[static_cast<std::size_t>(row_of(g))];
    for (auto& ch : row) {
      if (ch == ' ') ch = '-';
    }
  }
  for (std::size_t s = 0; s < series.size(); ++s) {
    const auto pts = resample(series[s], width);
    const char mark = kMarkers[s % sizeof(kMarkers)];
    for (int c = 0; c < width; ++c) {
      canvas[static_cast<std::size_t>(
          row_of(pts[static_cast<std::size_t>(c)]))]
            [static_cast<std::size_t>(c)] = mark;
    }
  }

  std::ostringstream out;
  if (!options.title.empty()) out << options.title << '\n';
  char label[32];
  for (int r = 0; r < height; ++r) {
    const double y = hi - (hi - lo) * static_cast<double>(r) /
                              static_cast<double>(height - 1);
    std::snprintf(label, sizeof(label), "%10.4g |", y);
    out << label << canvas[static_cast<std::size_t>(r)] << '\n';
  }
  out << std::string(11, ' ') << '+' << std::string(static_cast<std::size_t>(width), '-')
      << '\n';
  return out.str();
}

std::string plot_series(std::span<const double> series,
                        const PlotOptions& options) {
  const std::vector<std::vector<double>> one{
      std::vector<double>(series.begin(), series.end())};
  return plot_series(one, options);
}

std::string plot_trace_deficit(const Trace& trace, TaskId task, double gamma,
                               Count demand, const PlotOptions& base) {
  const auto counts = trace.task_series(task);
  std::vector<double> series;
  series.reserve(counts.size());
  for (const Count c : counts) series.push_back(static_cast<double>(c));
  PlotOptions options = base;
  const double band = 5.0 * gamma * static_cast<double>(demand) + 3.0;
  options.guides.push_back(band);
  options.guides.push_back(0.0);
  options.guides.push_back(-band);
  if (options.title.empty()) {
    options.title = "deficit of task " + std::to_string(task) +
                    " (guides: 0 and the +-(5*gamma*d+3) band)";
  }
  return plot_series(series, options);
}

}  // namespace antalloc
