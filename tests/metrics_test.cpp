#include <gtest/gtest.h>

#include "core/demand.h"
#include "metrics/oscillation.h"
#include "metrics/regret.h"
#include "metrics/trace.h"

namespace antalloc {
namespace {

TEST(RegretBands, PaperConstants) {
  const RegretBands bands{};
  EXPECT_NEAR(bands.c_plus(), 2.88, 1e-12);
  EXPECT_NEAR(bands.c_minus(), 3.88, 1e-12);
  // Claim 4.2's stable-zone condition: cs >= 20/9 + 2/(cd - 1).
  EXPECT_GE(bands.cs, 20.0 / 9.0 + 2.0 / (bands.cd - 1.0));
  // Claim 4.5's capacity condition at gamma = 1/16: (1 + 1.2 cs)/16 <= 1/4.
  EXPECT_LE((1.0 + 1.2 * bands.cs) / 16.0, 0.25 + 1e-12);
}

TEST(MetricsRecorder, PlainRegretAccumulates) {
  const DemandVector d({Count{10}, Count{20}});
  MetricsRecorder rec(2, 100, {.gamma = 0.1});
  const std::vector<Count> loads1{Count{10}, Count{20}};  // perfect
  const std::vector<Count> loads2{Count{5}, Count{25}};   // |5| + |-5|
  rec.record_round({.t = 1, .loads = loads1, .demands = &d});
  rec.record_round({.t = 2, .loads = loads2, .demands = &d});
  const SimResult res = rec.finish(loads2);
  EXPECT_EQ(res.rounds, 2);
  EXPECT_DOUBLE_EQ(res.total_regret, 10.0);
  EXPECT_DOUBLE_EQ(res.average_regret(), 5.0);
  EXPECT_EQ(res.final_loads[0], 5);
}

TEST(MetricsRecorder, DecompositionSplitsCorrectly) {
  // gamma = 0.1, cs = 2.4 -> c+ = 2.88, c- = 3.88.
  // Task demand 100: overload band starts at 128.8, lack band at 61.2.
  const DemandVector d({Count{100}});
  MetricsRecorder rec(1, 1000, {.gamma = 0.1});
  // Loads 150 (r+ = 21.2, r = 50), 40 (r- = 21.2, r = 60), 100 (all zero).
  const std::vector<Count> loads{Count{150}, Count{40}, Count{100}};
  for (Round t = 1; t <= 3; ++t) {
    rec.record_round({.t = t, .loads = {&loads[t - 1], 1}, .demands = &d});
  }
  const SimResult res = rec.finish(std::vector<Count>{Count{100}});
  EXPECT_NEAR(res.regret_plus, 150.0 - 128.8, 1e-9);
  EXPECT_NEAR(res.regret_minus, 61.2 - 40.0, 1e-9);
  EXPECT_NEAR(res.total_regret, 110.0, 1e-9);
  EXPECT_NEAR(res.regret_near,
              res.total_regret - res.regret_plus - res.regret_minus, 1e-9);
}

TEST(MetricsRecorder, ViolationBandIs5GammaDPlus3) {
  const DemandVector d({Count{100}});
  MetricsRecorder rec(1, 1000, {.gamma = 0.1});
  // Band: |delta| <= 5*0.1*100 + 3 = 53.
  // Loads 47 (delta 53: ok), 46 (delta 54: violated), 154 (delta -54:
  // violated).
  const std::vector<Count> loads{Count{47}, Count{46}, Count{154}};
  for (Round t = 1; t <= 3; ++t) {
    rec.record_round({.t = t, .loads = {&loads[t - 1], 1}, .demands = &d});
  }
  const SimResult res = rec.finish(std::vector<Count>{Count{100}});
  EXPECT_EQ(res.violation_rounds, 2);
}

TEST(MetricsRecorder, WarmupSplit) {
  const DemandVector d({Count{10}});
  MetricsRecorder rec(1, 100, {.gamma = 0.1, .warmup = 2});
  const std::vector<Count> loads{Count{8}};  // regret 2 per round
  for (Round t = 1; t <= 4; ++t) {
    rec.record_round({.t = t, .loads = loads, .demands = &d});
  }
  const SimResult res = rec.finish(std::vector<Count>{Count{8}});
  EXPECT_DOUBLE_EQ(res.total_regret, 8.0);
  EXPECT_EQ(res.post_warmup_rounds, 2);
  EXPECT_DOUBLE_EQ(res.post_warmup_regret, 4.0);
  EXPECT_DOUBLE_EQ(res.post_warmup_average(), 2.0);
}

TEST(MetricsRecorder, ClosenessDefinition) {
  const DemandVector d({Count{100}});
  MetricsRecorder rec(1, 1000, {.gamma = 0.1});
  const std::vector<Count> loads{Count{95}};  // regret 5
  rec.record_round({.t = 1, .loads = loads, .demands = &d});
  const SimResult res = rec.finish(std::vector<Count>{Count{95}});
  // closeness = avg regret / (gamma_star * total demand) = 5 / (0.05*100).
  EXPECT_DOUBLE_EQ(res.closeness(0.05, d.total()), 1.0);
}

TEST(Trace, StrideRecording) {
  Trace trace(2, 10);
  const std::vector<Count> deficits{Count{1}, Count{-2}};
  for (Round t = 1; t <= 35; ++t) trace.record(t, deficits, 3);
  EXPECT_EQ(trace.size(), 3u);  // rounds 10, 20, 30
  EXPECT_EQ(trace.round_at(0), 10);
  EXPECT_EQ(trace.deficit_at(2, 1), -2);
  EXPECT_EQ(trace.regret_at(1), 3);
}

TEST(Trace, DisabledWhenStrideZero) {
  Trace trace(2, 0);
  trace.record(1, std::vector<Count>{Count{1}, Count{2}}, 3);
  EXPECT_FALSE(trace.enabled());
  EXPECT_EQ(trace.size(), 0u);
}

TEST(Oscillation, ConstantSeriesHasNoCrossings) {
  const std::vector<Count> series(100, Count{5});
  const auto stats = analyze_series(series);
  EXPECT_EQ(stats.zero_crossings, 0);
  EXPECT_EQ(stats.max_abs_deficit, 5);
  EXPECT_DOUBLE_EQ(stats.mean_abs_deficit, 5.0);
  EXPECT_DOUBLE_EQ(stats.crossing_rate(), 0.0);
}

TEST(Oscillation, AlternatingSeriesCrossesEverySample) {
  std::vector<Count> series;
  for (int i = 0; i < 100; ++i) series.push_back(i % 2 == 0 ? 10 : -10);
  const auto stats = analyze_series(series);
  EXPECT_EQ(stats.zero_crossings, 99);
  EXPECT_NEAR(stats.crossing_rate(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.mean_deficit, 0.0);
}

TEST(Oscillation, ZerosDoNotCountAsCrossings) {
  const std::vector<Count> series{Count{5}, Count{0}, Count{5}, Count{0},
                                  Count{-5}};
  const auto stats = analyze_series(series);
  EXPECT_EQ(stats.zero_crossings, 1);  // only the 5 -> -5 flip
}

TEST(Oscillation, TraceTaskExtraction) {
  Trace trace(2, 1);
  for (Round t = 1; t <= 6; ++t) {
    const Count sign = (t % 2 == 0) ? 1 : -1;
    trace.record(t, std::vector<Count>{sign * 7, Count{0}}, 7);
  }
  const auto stats = analyze_trace_task(trace, 0, /*skip=*/2);
  EXPECT_EQ(stats.samples, 4);
  EXPECT_EQ(stats.max_abs_deficit, 7);
  EXPECT_EQ(stats.zero_crossings, 3);
}

}  // namespace
}  // namespace antalloc
