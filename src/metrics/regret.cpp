#include "metrics/regret.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace antalloc {

const double* SimResult::find_metric(std::string_view name) const {
  for (std::size_t i = 0; i < metric_names.size(); ++i) {
    if (metric_names[i] == name) return &metric_values[i];
  }
  return nullptr;
}

double SimResult::metric(std::string_view name) const {
  if (const double* value = find_metric(name)) return *value;
  std::string known;
  for (const std::string& n : metric_names) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("SimResult::metric: no scalar '" +
                              std::string(name) +
                              "' (recorded: " + known + ")");
}

MetricsRecorder::MetricsRecorder(std::int32_t num_tasks, Count n_ants,
                                 Options opts)
    : opts_(std::move(opts)),
      deficit_buf_(static_cast<std::size_t>(num_tasks), 0) {
  result_.n_ants = n_ants;
  result_.trace = Trace(num_tasks, opts_.trace_stride);
  const MetricContext ctx{.num_tasks = num_tasks,
                          .n_ants = n_ants,
                          .gamma = opts_.gamma,
                          .bands = opts_.bands,
                          .warmup = opts_.warmup};
  for (const std::string& name : resolve_metric_names(opts_.names)) {
    observers_.push_back(make_metric(name, ctx));
  }
}

MetricsRecorder::~MetricsRecorder() = default;

void MetricsRecorder::record_round(const RoundView& view) {
  const Round t = view.t;
  const std::span<const Count> loads = view.loads;
  const DemandVector& demands = *view.demands;

  // Always-on legacy accumulation: exactly the historical arithmetic, in
  // the historical order, so golden runs stay bit-stable regardless of the
  // metric selection.
  const double g = opts_.gamma;
  const double cp = opts_.bands.c_plus();
  const double cm = opts_.bands.c_minus();

  Count r = 0;
  double r_plus = 0.0;
  double r_minus = 0.0;
  bool violated = false;

  for (std::int32_t j = 0; j < demands.num_tasks(); ++j) {
    const auto ju = static_cast<std::size_t>(j);
    const Count w = loads[ju];
    const double d = static_cast<double>(demands[j]);
    const Count delta = demands[j] - w;
    deficit_buf_[ju] = delta;
    r += std::abs(delta);

    const double over = static_cast<double>(w) - (1.0 + cp * g) * d;
    if (over > 0.0) r_plus += over;
    const double lack = (1.0 - cm * g) * d - static_cast<double>(w);
    if (lack > 0.0) r_minus += lack;

    if (std::abs(static_cast<double>(delta)) > 5.0 * g * d + 3.0) {
      violated = true;
    }
  }

  result_.rounds = t;
  result_.switches += view.switches;
  result_.total_regret += static_cast<double>(r);
  result_.regret_plus += r_plus;
  result_.regret_minus += r_minus;
  result_.regret_near += static_cast<double>(r) - r_plus - r_minus;
  if (violated) ++result_.violation_rounds;
  if (t > opts_.warmup) {
    ++result_.post_warmup_rounds;
    result_.post_warmup_regret += static_cast<double>(r);
  }
  result_.trace.record(t, deficit_buf_, r);

  for (const auto& observer : observers_) observer->on_round(view);
  if (opts_.sink != nullptr) opts_.sink->on_round(view);
}

SimResult MetricsRecorder::finish(std::span<const Count> final_loads) {
  result_.final_loads.assign(final_loads.begin(), final_loads.end());
  for (const auto& observer : observers_) {
    observer->finish(result_.metric_names, result_.metric_values);
  }
  return std::move(result_);
}

}  // namespace antalloc
