// Streaming metrics vs their post-hoc oracles: every built-in observer must
// reproduce, bit for bit, the quantity recomputed after the fact from a
// stride-1 Trace (and, where one exists, the always-on legacy SimResult
// field). Runs across four scenario families — constant, shock, periodic,
// and task-churn (lifecycle) — on BOTH engines, so the RoundView emission
// path is pinned end to end, not just the observer arithmetic. The last
// suite pins the recorder's scalars to the standalone observers'.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics/convergence.h"
#include "metrics/metric.h"
#include "metrics/oscillation.h"
#include "noise/sigmoid.h"
#include "rng/xoshiro.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace antalloc {
namespace {

constexpr double kGamma = 0.05;
constexpr Round kRounds = 400;
constexpr Round kWarmup = 200;
constexpr Count kAnts = 1024;

struct Case {
  Scenario scenario;
  SimResult result;
};

Case run_case(const std::string& family, Engine engine) {
  const DemandVector base({Count{120}, Count{80}, Count{50}});
  ScenarioSpec spec;
  spec.name = family;
  spec.initial = InitialKind::kUniform;
  Scenario scenario = make_scenario(spec, base, kRounds);

  ExperimentConfig cfg;
  cfg.algo = AlgoConfig{.name = "ant", .gamma = kGamma};
  cfg.engine = engine;
  cfg.n_ants = kAnts;
  cfg.rounds = kRounds;
  cfg.seed = 77;
  cfg.initial = scenario.initial;
  cfg.initial_loads = scenario.initial_loads;
  // All built-ins at once, with a stride-1 trace as the oracle's raw data.
  cfg.metrics = {.gamma = kGamma,
                 .warmup = kWarmup,
                 .trace_stride = 1,
                 .names = metric_names()};

  SigmoidFeedback fm(1.0);
  SimResult result = run_experiment(cfg, fm, scenario.schedule);
  return Case{std::move(scenario), std::move(result)};
}

// Oracles: the same arithmetic the streaming observers perform, but driven
// from the retained trace — any divergence in what the engines fed the
// observers (loads, demands, round order) breaks the EXPECT_EQs below.

double oracle_post_warmup_regret_avg(const Trace& trace) {
  Round rounds = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.round_at(i) > kWarmup) {
      ++rounds;
      sum += static_cast<double>(trace.regret_at(i));
    }
  }
  return rounds > 0 ? sum / static_cast<double>(rounds) : 0.0;
}

std::int64_t oracle_violations(const Trace& trace,
                               const DemandSchedule& schedule) {
  std::int64_t violated = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const DemandVector& demands = schedule.demands_at(trace.round_at(i));
    for (TaskId j = 0; j < trace.num_tasks(); ++j) {
      const double d = static_cast<double>(demands[j]);
      if (std::abs(static_cast<double>(trace.deficit_at(i, j))) >
          5.0 * kGamma * d + 3.0) {
        ++violated;
        break;
      }
    }
  }
  return violated;
}

void oracle_split(const Trace& trace, const DemandSchedule& schedule,
                  double& plus, double& near, double& minus) {
  const RegretBands bands{};
  const double cp = bands.c_plus();
  const double cm = bands.c_minus();
  plus = near = minus = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const DemandVector& demands = schedule.demands_at(trace.round_at(i));
    Count r = 0;
    double r_plus = 0.0;
    double r_minus = 0.0;
    for (TaskId j = 0; j < trace.num_tasks(); ++j) {
      const Count delta = trace.deficit_at(i, j);
      const Count w = demands[j] - delta;
      const double d = static_cast<double>(demands[j]);
      r += std::abs(delta);
      const double over = static_cast<double>(w) - (1.0 + cp * kGamma) * d;
      if (over > 0.0) r_plus += over;
      const double lack = (1.0 - cm * kGamma) * d - static_cast<double>(w);
      if (lack > 0.0) r_minus += lack;
    }
    plus += r_plus;
    minus += r_minus;
    near += static_cast<double>(r) - r_plus - r_minus;
  }
}

double oracle_closeness(const Trace& trace, const DemandSchedule& schedule) {
  Round rounds = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Round t = trace.round_at(i);
    if (t <= kWarmup) continue;
    ++rounds;
    const double denom =
        kGamma * static_cast<double>(schedule.demands_at(t).total());
    if (denom > 0.0) sum += static_cast<double>(trace.regret_at(i)) / denom;
  }
  return rounds > 0 ? sum / static_cast<double>(rounds) : 0.0;
}

class MetricEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, Engine>> {};

TEST_P(MetricEquivalence, StreamingMatchesTraceOracleBitExactly) {
  const auto& [family, engine] = GetParam();
  const Case c = run_case(family, engine);
  const SimResult& r = c.result;
  const DemandSchedule& schedule = c.scenario.schedule;
  ASSERT_EQ(r.trace.size(), static_cast<std::size_t>(kRounds));
  ASSERT_EQ(r.metric_names.size(),
            metric_scalar_columns(metric_names()).size());

  // regret: streaming == always-on legacy field == trace recomputation.
  EXPECT_EQ(r.metric("regret"), r.post_warmup_average());
  EXPECT_EQ(r.metric("regret"), oracle_post_warmup_regret_avg(r.trace));

  // violations: the legacy counter and the trace recount.
  EXPECT_EQ(r.metric("violations"),
            static_cast<double>(r.violation_rounds));
  EXPECT_EQ(r.metric("violations"),
            static_cast<double>(oracle_violations(r.trace, schedule)));

  // switches: streaming normalization of the legacy total.
  EXPECT_EQ(r.metric("switches_per_ant_round"),
            static_cast<double>(r.switches) /
                static_cast<double>(r.rounds) /
                static_cast<double>(r.n_ants));

  // regret-split: legacy fields and trace recomputation.
  double plus = 0.0;
  double near = 0.0;
  double minus = 0.0;
  oracle_split(r.trace, schedule, plus, near, minus);
  EXPECT_EQ(r.metric("regret_plus"), r.regret_plus);
  EXPECT_EQ(r.metric("regret_near"), r.regret_near);
  EXPECT_EQ(r.metric("regret_minus"), r.regret_minus);
  EXPECT_EQ(r.metric("regret_plus"), plus);
  EXPECT_EQ(r.metric("regret_near"), near);
  EXPECT_EQ(r.metric("regret_minus"), minus);

  // closeness: trace recomputation; on a constant schedule it also agrees
  // (numerically — the summation order differs) with the legacy helper.
  EXPECT_EQ(r.metric("closeness"), oracle_closeness(r.trace, schedule));
  if (schedule.is_constant()) {
    EXPECT_NEAR(r.metric("closeness"),
                r.closeness(kGamma, schedule.demands_at(1).total()), 1e-9);
  }

  // convergence: the retained-trace scan (metrics/convergence.h oracle).
  const ConvergenceStats conv = measure_convergence(r.trace, schedule, kGamma);
  EXPECT_EQ(r.metric("convergence_round"),
            static_cast<double>(conv.first_in_band));
  EXPECT_EQ(r.metric("last_violation"),
            static_cast<double>(conv.last_violation));
  EXPECT_EQ(r.metric("band_occupancy"), conv.occupancy_after_entry);

  // oscillation: analyze_trace_task per task (the Trace::task_series copy
  // path), aggregated with the metric's exact formula.
  double rate_sum = 0.0;
  double mean_abs_sum = 0.0;
  double max_abs = 0.0;
  for (TaskId j = 0; j < r.trace.num_tasks(); ++j) {
    const OscillationStats stats = analyze_trace_task(r.trace, j);
    rate_sum += stats.crossing_rate();
    mean_abs_sum += stats.mean_abs_deficit;
    max_abs = std::max(max_abs, static_cast<double>(stats.max_abs_deficit));
  }
  const auto k = static_cast<double>(r.trace.num_tasks());
  EXPECT_EQ(r.metric("osc_crossing_rate"), rate_sum / k);
  EXPECT_EQ(r.metric("osc_max_abs_deficit"), max_abs);
  EXPECT_EQ(r.metric("osc_mean_abs_deficit"), mean_abs_sum / k);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesEngines, MetricEquivalence,
    ::testing::Combine(::testing::Values("constant", "single-shock",
                                         "day-night", "task-churn"),
                       ::testing::Values(Engine::kAggregate, Engine::kAgent)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::string(to_string(std::get<1>(info.param)));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(OscillationAccumulator, MatchesAnalyzeSeriesOnRandomData) {
  rng::Xoshiro256 gen(424242);
  std::vector<Count> series;
  OscillationAccumulator acc;
  for (int i = 0; i < 2000; ++i) {
    const Count value = static_cast<Count>(gen.uniform_below(21)) - 10;
    series.push_back(value);
    acc.add(value);
  }
  const OscillationStats expected = analyze_series(series);
  const OscillationStats streamed = acc.stats();
  EXPECT_EQ(streamed.samples, expected.samples);
  EXPECT_EQ(streamed.zero_crossings, expected.zero_crossings);
  EXPECT_EQ(streamed.max_abs_deficit, expected.max_abs_deficit);
  EXPECT_EQ(streamed.mean_abs_deficit, expected.mean_abs_deficit);
  EXPECT_EQ(streamed.mean_deficit, expected.mean_deficit);
}

TEST(ConvergenceAccumulator, MatchesTraceScan) {
  // Hand-driven series with entry, relapse and a schedule change.
  DemandSchedule schedule(DemandVector({Count{100}}));
  schedule.add_change(5, DemandVector({Count{200}}));
  const std::vector<Count> deficits{90, 40, 70, 20, 120, 90, 30, 10};
  Trace trace(1, 1);
  ConvergenceAccumulator acc(0.1);
  Round t = 0;
  for (const Count d : deficits) {
    ++t;
    trace.record(t, std::vector<Count>{d}, std::abs(d));
    const DemandVector& demands = schedule.demands_at(t);
    const std::vector<Count> loads{demands[0] - d};
    acc.observe(t, loads, demands);
  }
  const ConvergenceStats expected = measure_convergence(trace, schedule, 0.1);
  const ConvergenceStats streamed = acc.stats();
  EXPECT_EQ(streamed.first_in_band, expected.first_in_band);
  EXPECT_EQ(streamed.last_violation, expected.last_violation);
  EXPECT_EQ(streamed.occupancy_after_entry, expected.occupancy_after_entry);
}

// The recorder and the standalone observers run one code path: for every
// registered metric and both per-task families, the scalars a
// MetricsRecorder emits must be bit-equal to those of make_metric(...) fed
// the recorder's own RoundViews. k = 1, 8 and 70; per k one grey-zone run
// (constant demands under soft sigmoid noise) and one lifecycle run
// (task-churn; a one-task colony has no lifecycle family, so k = 1 takes
// the single-shock schedule instead).

// Copies every RoundView the recorder forwards (loads are borrowed).
class RoundCapture final : public RoundSink {
 public:
  void on_round(const RoundView& view) override {
    views_.push_back(view);
    loads_.emplace_back(view.loads.begin(), view.loads.end());
  }

  // The captured views, their loads re-pointed at the copies.
  std::vector<RoundView> views() const {
    std::vector<RoundView> out = views_;
    for (std::size_t i = 0; i < out.size(); ++i) out[i].loads = loads_[i];
    return out;
  }

 private:
  std::vector<RoundView> views_;
  std::vector<std::vector<Count>> loads_;
};

class RecorderMatchesObservers
    : public ::testing::TestWithParam<std::tuple<std::int32_t, bool>> {};

TEST_P(RecorderMatchesObservers, ScalarsAreBitEqual) {
  const auto& [k, lifecycle] = GetParam();
  std::vector<Count> demands(static_cast<std::size_t>(k));
  for (std::int32_t j = 0; j < k; ++j) {
    demands[static_cast<std::size_t>(j)] = 40 + 13 * (j % 5);
  }
  ScenarioSpec spec;
  spec.name = !lifecycle ? "constant" : k == 1 ? "single-shock" : "task-churn";
  spec.initial = InitialKind::kUniform;
  const Scenario scenario =
      make_scenario(spec, DemandVector(demands), kRounds);

  std::vector<std::string> names = metric_names();
  names.push_back("oscillation-per-task@" + std::to_string(k));
  names.push_back("convergence-per-task@" + std::to_string(k));
  RoundCapture capture;
  ExperimentConfig cfg;
  cfg.algo = AlgoConfig{.name = "ant", .gamma = kGamma};
  cfg.n_ants = 160 * static_cast<Count>(k);
  cfg.rounds = kRounds;
  cfg.seed = 5;
  cfg.initial = scenario.initial;
  cfg.metrics = {
      .gamma = kGamma, .warmup = kWarmup, .names = names, .sink = &capture};
  SigmoidFeedback fm(0.1);  // soft: most tasks sit in the grey zone
  const SimResult r = run_experiment(cfg, fm, scenario.schedule);
  ASSERT_EQ(r.metric_names.size(), metric_scalar_columns(names).size());

  const std::vector<RoundView> views = capture.views();
  ASSERT_EQ(views.size(), static_cast<std::size_t>(kRounds));
  const MetricContext ctx{.num_tasks = k,
                          .n_ants = cfg.n_ants,
                          .gamma = kGamma,
                          .warmup = kWarmup};
  std::size_t column = 0;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const auto metric = make_metric(name, ctx);
    for (const RoundView& view : views) metric->on_round(view);
    std::vector<std::string> scalar_names;
    std::vector<double> values;
    metric->finish(scalar_names, values);
    ASSERT_EQ(values.size(), metric_scalars(name).size());
    for (std::size_t i = 0; i < values.size(); ++i, ++column) {
      ASSERT_EQ(scalar_names[i], r.metric_names[column]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(values[i]),
                std::bit_cast<std::uint64_t>(r.metric_values[column]))
          << scalar_names[i] << ": " << values[i] << " vs "
          << r.metric_values[column];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TaskCounts, RecorderMatchesObservers,
    ::testing::Combine(::testing::Values(1, 8, 70), ::testing::Bool()),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_lifecycle" : "_grey");
    });

}  // namespace
}  // namespace antalloc
