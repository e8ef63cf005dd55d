// Regret accounting (paper §2.3 and §4) and the per-run metrics driver.
//
// r(t) = Σ_j |Δ(j)_t| and R(t) = Σ_{τ<=t} r(τ). The analysis splits R into
//   R⁺  — overload beyond (1 + c⁺γ)d(j), with c⁺ = 1.2·cs,
//   R⁻  — lack beyond   (1 − c⁻γ)d(j), with c⁻ = 1 + 1.2·cs,
//   R≈  — the remainder (the "controlled oscillation" band).
// MetricsRecorder accrues all four per round, counts rounds violating the
// Theorem 3.1 deficit band 5γ·d(j)+3, applies a warmup split, and feeds the
// optional Trace — these always-on legacy fields keep every historical
// consumer bit-stable. The same pass drives the SELECTED streaming metrics
// from the registry in metrics/metric.h (RegretBands, RoundView and
// MetricSet live there): both engines emit one RoundView per round, the
// recorder's MetricSet summarizes it in one pass over the tasks and folds
// the summary, and finish() writes the metrics' named scalars into
// SimResult's scalar map. SimResult is the summary the engines hand back.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/demand.h"
#include "core/types.h"
#include "metrics/metric.h"
#include "metrics/trace.h"

namespace antalloc {

struct SimResult {
  Round rounds = 0;
  Count n_ants = 0;

  // Totals over the whole horizon.
  double total_regret = 0.0;
  double regret_plus = 0.0;
  double regret_near = 0.0;
  double regret_minus = 0.0;

  // Totals after the warmup cut (the quantity the t→∞ bounds constrain).
  Round post_warmup_rounds = 0;
  double post_warmup_regret = 0.0;

  // Rounds in which some task had |Δ(j)| > 5γ·d(j) + 3 (Theorem 3.1 band).
  std::int64_t violation_rounds = 0;

  // Ant-assignment changes between consecutive rounds (engines that track
  // it; otherwise 0). Theorem 3.6 compares this across algorithms.
  std::int64_t switches = 0;

  std::vector<Count> final_loads;
  Trace trace;

  // Named scalars from the selected streaming metrics (metrics/metric.h),
  // flattened in selection order — e.g. "regret", "violations",
  // "switches_per_ant_round" for the default set. This is what campaigns
  // aggregate and shard CSVs persist; the fixed fields above stay as the
  // always-on legacy view.
  std::vector<std::string> metric_names;
  std::vector<double> metric_values;

  // Scalar lookup: find_metric returns nullptr when the metric was not
  // selected; metric throws std::invalid_argument naming the available
  // scalars.
  const double* find_metric(std::string_view name) const;
  double metric(std::string_view name) const;

  double average_regret() const {
    return rounds > 0 ? total_regret / static_cast<double>(rounds) : 0.0;
  }
  double post_warmup_average() const {
    return post_warmup_rounds > 0
               ? post_warmup_regret / static_cast<double>(post_warmup_rounds)
               : 0.0;
  }
  // c such that the assignment is c-close (paper §2.3): average regret
  // divided by γ*·Σd. Uses the post-warmup average.
  double closeness(double gamma_star, Count total_demand) const {
    const double denom = gamma_star * static_cast<double>(total_demand);
    return denom > 0.0 ? post_warmup_average() / denom : 0.0;
  }
};

class MetricsRecorder {
 public:
  struct Options {
    double gamma = 0.01;        // the algorithm's learning rate (band widths)
    RegretBands bands{};
    Round warmup = 0;           // rounds excluded from the post-warmup totals
    Round trace_stride = 0;     // 0 = no trace
    // Streaming metric selection by registry name (metrics/metric.h);
    // empty = default_metric_names(). Unknown or duplicate names throw
    // std::invalid_argument at recorder construction.
    std::vector<std::string> names;
    // Borrowed per-round tap (metrics/metric.h): the recorder forwards every
    // RoundView to it after the metrics. Non-owning — the caller that set
    // it must keep it alive through finish() and call its close(). This is
    // how the binary trace logger (io/trace_log.h) rides the engines'
    // emission without the engines knowing about files or threads. Never
    // enters campaign_config_hash (a tap must not change any number).
    RoundSink* sink = nullptr;
  };

  MetricsRecorder(std::int32_t num_tasks, Count n_ants, Options opts);

  // Folds one round — the engines' path: view.loads are W(j)_t, the
  // demands/active set are those in force, and view.switches the assignment
  // changes applied during round t (lifecycle flush included).
  void record_round(const RoundView& view);

  // Finalizes and returns the summary (loads = final visible loads).
  SimResult finish(std::span<const Count> final_loads);

 private:
  Options opts_;
  SimResult result_;
  MetricSet metrics_;
};

}  // namespace antalloc
