#include "metrics/regret.h"

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
      metrics_(MetricContext{.num_tasks = num_tasks,
                             .n_ants = n_ants,
                             .gamma = opts_.gamma,
                             .bands = opts_.bands,
                             .warmup = opts_.warmup},
               opts_.names) {
  result_.n_ants = n_ants;
  result_.trace = Trace(num_tasks, opts_.trace_stride);
}

void MetricsRecorder::record_round(const RoundView& view) {
  const RoundSummary& s = metrics_.on_round(view);
  result_.trace.record(s.t, s.deficits, s.regret);
  if (opts_.sink != nullptr) opts_.sink->on_round(view);
}

SimResult MetricsRecorder::finish(std::span<const Count> final_loads) {
  const RoundTotals& t = metrics_.totals();
  result_.rounds = t.rounds;
  result_.switches = t.switches;
  result_.total_regret = t.total_regret;
  result_.regret_plus = t.regret_plus;
  result_.regret_near = t.regret_near;
  result_.regret_minus = t.regret_minus;
  result_.violation_rounds = t.violation_rounds;
  result_.post_warmup_rounds = t.post_warmup_rounds;
  result_.post_warmup_regret = t.post_warmup_regret;
  result_.final_loads.assign(final_loads.begin(), final_loads.end());
  metrics_.finish(result_.metric_names, result_.metric_values);
  return std::move(result_);
}

}  // namespace antalloc
