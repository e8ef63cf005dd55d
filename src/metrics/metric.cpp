#include "metrics/metric.h"

#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>

namespace antalloc {

RoundSink::~RoundSink() = default;

namespace {

struct MetricInfo {
  const char* name;
  const char* description;
  std::vector<MetricScalar> scalars;
  MetricFold fold;
};

// Registration order is presentation order (CLI listings, default columns).
// The first three are the historical fixed set; their table column specs
// reproduce the pre-registry campaign CSV header byte for byte.
const std::vector<MetricInfo>& registry() {
  static const std::vector<MetricInfo> metrics = {
      {"regret",
       "post-warmup average per-round regret sum_j |d(j) - W(j)| (paper "
       "S2.3)",
       {{"regret", "regret_mean", 5, /*ci95=*/true, 4}},
       MetricFold::kRegret},
      {"violations",
       "rounds in which some task violates the Theorem 3.1 deficit band "
       "5*gamma*d(j)+3",
       {{"violations", "violations_mean", 6}},
       MetricFold::kViolations},
      {"switches",
       "assignment changes per ant per round, lifecycle flushes included "
       "(Theorem 3.6)",
       {{"switches_per_ant_round", "switches_per_ant_round", 6}},
       MetricFold::kSwitches},
      {"regret-split",
       "whole-horizon R+/R~/R- regret decomposition: overload beyond the "
       "band, controlled oscillation, lack",
       {{"regret_plus", "regret_plus_mean", 5},
        {"regret_near", "regret_near_mean", 5},
        {"regret_minus", "regret_minus_mean", 5}},
       MetricFold::kRegretSplit},
      {"closeness",
       "post-warmup average of r(t)/(gamma * total demand in force) — the "
       "paper's c-closeness with gamma_star = gamma",
       {{"closeness", "closeness_mean", 5, /*ci95=*/true, 4}},
       MetricFold::kCloseness},
      {"convergence",
       "first round entering the Theorem 3.1 band, last violating round, "
       "and band occupancy after entry",
       {{"convergence_round", "convergence_round_mean", 7},
        {"last_violation", "last_violation_mean", 7},
        {"band_occupancy", "band_occupancy_mean", 5}},
       MetricFold::kConvergence},
      {"oscillation",
       "per-task deficit oscillation: sign-change rate, peak amplitude and "
       "mean |deficit| (Theorem 3.3, Appendix D)",
       {{"osc_crossing_rate", "osc_crossing_rate_mean", 5},
        {"osc_max_abs_deficit", "osc_max_abs_deficit_mean", 7},
        {"osc_mean_abs_deficit", "osc_mean_abs_deficit_mean", 4}},
       MetricFold::kOscillation},
  };
  return metrics;
}

// Parameterized per-task families: "<base>-per-task@K". Returns the base
// ("oscillation" or "convergence") and K when `name` is a well-formed
// per-task selection, nothing otherwise. K must be a positive integer with
// no trailing garbage — "oscillation-per-task@0" or "@3x" are unknown
// metrics, not silent surprises.
struct PerTaskName {
  enum class Base { kOscillation, kConvergence } base;
  std::int32_t k = 0;
};

std::optional<PerTaskName> parse_per_task(const std::string& name) {
  PerTaskName out;
  std::string_view rest;
  if (name.rfind("oscillation-per-task@", 0) == 0) {
    out.base = PerTaskName::Base::kOscillation;
    rest = std::string_view(name).substr(sizeof("oscillation-per-task@") - 1);
  } else if (name.rfind("convergence-per-task@", 0) == 0) {
    out.base = PerTaskName::Base::kConvergence;
    rest = std::string_view(name).substr(sizeof("convergence-per-task@") - 1);
  } else {
    return std::nullopt;
  }
  if (rest.empty() || rest.size() > 4) return std::nullopt;
  std::int32_t k = 0;
  for (const char c : rest) {
    if (c < '0' || c > '9') return std::nullopt;
    k = k * 10 + (c - '0');
  }
  if (k < 1) return std::nullopt;
  out.k = k;
  return out;
}

std::vector<MetricScalar> per_task_scalars(const PerTaskName& p) {
  std::vector<MetricScalar> out;
  out.reserve(static_cast<std::size_t>(p.k) * 3);
  for (std::int32_t i = 0; i < p.k; ++i) {
    const std::string suffix = ".task" + std::to_string(i);
    if (p.base == PerTaskName::Base::kOscillation) {
      out.push_back({"osc_crossing_rate" + suffix,
                     "osc_crossing_rate" + suffix + "_mean", 5});
      out.push_back({"osc_max_abs_deficit" + suffix,
                     "osc_max_abs_deficit" + suffix + "_mean", 7});
      out.push_back({"osc_mean_abs_deficit" + suffix,
                     "osc_mean_abs_deficit" + suffix + "_mean", 4});
    } else {
      out.push_back({"convergence_round" + suffix,
                     "convergence_round" + suffix + "_mean", 7});
      out.push_back({"last_violation" + suffix,
                     "last_violation" + suffix + "_mean", 7});
      out.push_back({"band_occupancy" + suffix,
                     "band_occupancy" + suffix + "_mean", 5});
    }
  }
  return out;
}

const MetricInfo& find_metric_info(const std::string& name) {
  for (const MetricInfo& info : registry()) {
    if (name == info.name) return info;
  }
  std::string known;
  for (const MetricInfo& info : registry()) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  throw std::invalid_argument(
      "unknown metric '" + name + "' (registered: " + known +
      "; per-task variants: oscillation-per-task@K, convergence-per-task@K)");
}

}  // namespace

std::vector<std::string> metric_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const MetricInfo& info : registry()) names.emplace_back(info.name);
  return names;
}

bool has_metric(const std::string& name) {
  if (parse_per_task(name).has_value()) return true;
  for (const MetricInfo& info : registry()) {
    if (name == info.name) return true;
  }
  return false;
}

std::string metric_description(const std::string& name) {
  if (const auto p = parse_per_task(name)) {
    const bool osc = p->base == PerTaskName::Base::kOscillation;
    return std::string(osc ? "per-task oscillation statistics"
                           : "per-task Theorem 3.1 band statistics") +
           " for a " + std::to_string(p->k) +
           "-task colony, one <scalar>.task<i> column set per task";
  }
  return find_metric_info(name).description;
}

std::vector<MetricScalar> metric_scalars(const std::string& name) {
  if (const auto p = parse_per_task(name)) return per_task_scalars(*p);
  return find_metric_info(name).scalars;
}

std::vector<std::string> default_metric_names() {
  return {"regret", "violations", "switches"};
}

std::vector<std::string> resolve_metric_names(
    const std::vector<std::string>& names) {
  if (names.empty()) return default_metric_names();
  std::vector<std::string> resolved;
  resolved.reserve(names.size());
  for (const std::string& name : names) {
    if (!parse_per_task(name).has_value()) {
      find_metric_info(name);  // throws on unknown
    }
    for (const std::string& prev : resolved) {
      if (prev == name) {
        throw std::invalid_argument("duplicate metric '" + name +
                                    "' in selection");
      }
    }
    resolved.push_back(name);
  }
  return resolved;
}

std::vector<MetricScalar> metric_scalar_columns(
    const std::vector<std::string>& names) {
  std::vector<MetricScalar> columns;
  for (const std::string& name : resolve_metric_names(names)) {
    const std::vector<MetricScalar> scalars = metric_scalars(name);
    columns.insert(columns.end(), scalars.begin(), scalars.end());
  }
  return columns;
}

namespace {

// max(x, 0.0) without a branch: x + |x| is +0.0 for x <= 0 and 2x, exact
// below DBL_MAX / 2, otherwise; halving 2x is exact.
double positive_part(double x) { return (x + std::abs(x)) * 0.5; }

}  // namespace

std::unique_ptr<MetricSet> make_metric(const std::string& name,
                                       const MetricContext& ctx) {
  return std::make_unique<MetricSet>(ctx, std::vector<std::string>{name});
}

MetricSet::MetricSet(const MetricContext& ctx,
                     const std::vector<std::string>& names)
    : ctx_(ctx),
      deficits_(static_cast<std::size_t>(ctx.num_tasks), 0),
      outside_(static_cast<std::size_t>(ctx.num_tasks), 0),
      convergence_acc_(ctx.gamma) {
  for (const std::string& name : resolve_metric_names(names)) {
    MetricFold fold;
    if (const auto p = parse_per_task(name)) {
      if (ctx.num_tasks != p->k) {
        throw std::invalid_argument(
            name + " requires a " + std::to_string(p->k) +
            "-task colony, this run has " + std::to_string(ctx.num_tasks) +
            " tasks");
      }
      fold = p->base == PerTaskName::Base::kOscillation
                 ? MetricFold::kOscillationPerTask
                 : MetricFold::kConvergencePerTask;
    } else {
      fold = find_metric_info(name).fold;
    }
    order_.push_back(fold);
    folds_ |= 1u << static_cast<unsigned>(fold);
  }
  if (selected(MetricFold::kOscillation) ||
      selected(MetricFold::kOscillationPerTask)) {
    oscillation_cols_ = OscillationColumns(ctx.num_tasks);
  }
  if (selected(MetricFold::kConvergencePerTask)) {
    convergence_cols_ = ConvergenceColumns(ctx.num_tasks);
  }
}

const RoundSummary& MetricSet::on_round(const RoundView& view) {
  summarize(view);
  fold(summary_);
  return summary_;
}

// The round's one pass over the tasks, branch-free: the historical
// recorder arithmetic in the historical order. positive_part adds a +0.0
// term where the guarded add added nothing, which leaves a sum seeded at
// +0.0 bit-equal.
void MetricSet::summarize(const RoundView& view) {
  const DemandVector& demands = *view.demands;
  const auto k = static_cast<std::size_t>(demands.num_tasks());
  const Count* d = demands.values().data();
  const Count* w = view.loads.data();
  Count* deficits = deficits_.data();
  std::uint8_t* outside = outside_.data();
  const double g = ctx_.gamma;
  const double over_scale = 1.0 + ctx_.bands.c_plus() * g;
  const double lack_scale = 1.0 - ctx_.bands.c_minus() * g;

  Count r = 0;
  double r_plus = 0.0;
  double r_minus = 0.0;
  std::uint8_t violated = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const Count demand = d[j];
    const Count load = w[j];
    const Count delta = demand - load;
    const double dj = static_cast<double>(demand);
    const double wj = static_cast<double>(load);
    deficits[j] = delta;
    r += std::abs(delta);
    r_plus += positive_part(wj - over_scale * dj);
    r_minus += positive_part(lack_scale * dj - wj);
    const std::uint8_t out = outside_band(delta, demand, g);
    outside[j] = out;
    violated |= out;
  }

  summary_ = RoundSummary{.t = view.t,
                          .switches = view.switches,
                          .deficits = {deficits, k},
                          .outside = {outside, k},
                          .regret = r,
                          .total_demand = demands.total(),
                          .regret_plus = r_plus,
                          .regret_minus = r_minus,
                          .violated = violated != 0};
}

void MetricSet::fold(const RoundSummary& s) {
  const auto r = static_cast<double>(s.regret);
  totals_.rounds = s.t;
  totals_.switches += s.switches;
  totals_.total_regret += r;
  totals_.regret_plus += s.regret_plus;
  totals_.regret_minus += s.regret_minus;
  totals_.regret_near += r - s.regret_plus - s.regret_minus;
  totals_.violation_rounds += s.violated;
  if (s.t > ctx_.warmup) {
    ++totals_.post_warmup_rounds;
    totals_.post_warmup_regret += r;
    const double denom = ctx_.gamma * static_cast<double>(s.total_demand);
    if (selected(MetricFold::kCloseness) && denom > 0.0) {
      closeness_sum_ += r / denom;
    }
  }
  if (selected(MetricFold::kConvergence)) {
    convergence_acc_.observe(s.t, !s.violated);
  }
  if (oscillation_cols_.num_tasks() > 0) oscillation_cols_.add(s.deficits);
  if (selected(MetricFold::kConvergencePerTask)) {
    convergence_cols_.add(s.t, s.outside);
  }
}

void MetricSet::finish(std::vector<std::string>& names,
                       std::vector<double>& values) const {
  const auto per_round = [](double sum, Round rounds) {
    return rounds > 0 ? sum / static_cast<double>(rounds) : 0.0;
  };
  const auto emit_convergence = [&](const ConvergenceStats& stats,
                                    const std::string& suffix) {
    names.insert(names.end(), {"convergence_round" + suffix,
                               "last_violation" + suffix,
                               "band_occupancy" + suffix});
    values.insert(values.end(), {static_cast<double>(stats.first_in_band),
                                 static_cast<double>(stats.last_violation),
                                 stats.occupancy_after_entry});
  };
  const RoundTotals& t = totals_;
  for (const MetricFold fold : order_) {
    switch (fold) {
      case MetricFold::kRegret:
        names.push_back("regret");
        values.push_back(
            per_round(t.post_warmup_regret, t.post_warmup_rounds));
        break;
      case MetricFold::kViolations:
        names.push_back("violations");
        values.push_back(static_cast<double>(t.violation_rounds));
        break;
      case MetricFold::kSwitches:
        // The campaign's historical switches_per_ant_round expression.
        names.push_back("switches_per_ant_round");
        values.push_back(t.rounds > 0 && ctx_.n_ants > 0
                             ? static_cast<double>(t.switches) /
                                   static_cast<double>(t.rounds) /
                                   static_cast<double>(ctx_.n_ants)
                             : 0.0);
        break;
      case MetricFold::kRegretSplit:
        names.insert(names.end(),
                     {"regret_plus", "regret_near", "regret_minus"});
        values.insert(values.end(),
                      {t.regret_plus, t.regret_near, t.regret_minus});
        break;
      case MetricFold::kCloseness:
        names.push_back("closeness");
        values.push_back(per_round(closeness_sum_, t.post_warmup_rounds));
        break;
      case MetricFold::kConvergence:
        emit_convergence(convergence_acc_.stats(), "");
        break;
      case MetricFold::kOscillation: {
        // Task-order means and running max of the per-task statistics, so
        // the trace oracle (analyze_trace_task per task, combined the same
        // way) and the per-task columns reproduce them bit-exactly.
        const std::int32_t k = oscillation_cols_.num_tasks();
        double rate_sum = 0.0;
        double mean_abs_sum = 0.0;
        double max_abs = 0.0;
        for (std::int32_t j = 0; j < k; ++j) {
          const OscillationStats stats = oscillation_cols_.stats(j);
          rate_sum += stats.crossing_rate();
          mean_abs_sum += stats.mean_abs_deficit;
          const auto task_max = static_cast<double>(stats.max_abs_deficit);
          if (task_max > max_abs) max_abs = task_max;
        }
        const auto kd = static_cast<double>(k);
        names.insert(names.end(), {"osc_crossing_rate", "osc_max_abs_deficit",
                                   "osc_mean_abs_deficit"});
        values.insert(values.end(), {k == 0 ? 0.0 : rate_sum / kd, max_abs,
                                     k == 0 ? 0.0 : mean_abs_sum / kd});
        break;
      }
      case MetricFold::kOscillationPerTask:
        for (std::int32_t j = 0; j < oscillation_cols_.num_tasks(); ++j) {
          const OscillationStats stats = oscillation_cols_.stats(j);
          const std::string suffix = ".task" + std::to_string(j);
          names.insert(names.end(), {"osc_crossing_rate" + suffix,
                                     "osc_max_abs_deficit" + suffix,
                                     "osc_mean_abs_deficit" + suffix});
          values.insert(values.end(),
                        {stats.crossing_rate(),
                         static_cast<double>(stats.max_abs_deficit),
                         stats.mean_abs_deficit});
        }
        break;
      case MetricFold::kConvergencePerTask:
        for (std::int32_t j = 0; j < ctx_.num_tasks; ++j) {
          emit_convergence(convergence_cols_.stats(j),
                           ".task" + std::to_string(j));
        }
        break;
    }
  }
}

}  // namespace antalloc
