// Behavioural tests for Algorithm Ant: phase anatomy (two spaced samples),
// the stable zone, convergence into the 5γd band, and self-stabilization.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "aggregate/aggregate_sim.h"
#include "agent/agent_sim.h"
#include "algo/ant.h"
#include "core/critical_value.h"
#include "noise/adversarial.h"
#include "noise/exact.h"
#include "noise/sigmoid.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "sim/scenario.h"
#include "testing_util.h"

namespace antalloc {
namespace {

constexpr double kLambda = 1.0;

TEST(AntParams, Validation) {
  EXPECT_THROW(AntAgent(AntParams{.gamma = 0.0}), std::invalid_argument);
  EXPECT_THROW(AntAgent(AntParams{.gamma = 1.5}), std::invalid_argument);
  EXPECT_THROW(AntAgent(AntParams{.gamma = 0.9, .cs = 2.4}),
               std::invalid_argument);  // cs*gamma > 1
  EXPECT_NO_THROW(AntAgent(AntParams{.gamma = 0.05}));
  const AntParams p{.gamma = 0.02};
  EXPECT_NEAR(p.pause_probability(), 0.048, 1e-12);
  EXPECT_NEAR(p.leave_probability(), 0.02 / 19.0, 1e-12);
}

TEST(AntAggregate, PauseReducesSecondSampleLoad) {
  // Start fully saturated on one task; after the odd round the visible load
  // must be ~ W(1 - cs*gamma).
  const AntParams params{.gamma = 0.02};
  AntAggregate kernel(params);
  const DemandVector demands({Count{10'000}});
  const Allocation init(40'000, {Count{10'000}});
  kernel.reset(init, 7);
  const SigmoidFeedback fm(kLambda);
  const auto out = kernel.step(1, demands, fm);
  const double expected = 10'000.0 * (1.0 - params.pause_probability());
  EXPECT_NEAR(static_cast<double>(out.loads[0]), expected,
              5.0 * std::sqrt(10'000.0 * params.pause_probability()));
  // Even round restores the committed ants (minus rare leavers).
  const auto out2 = kernel.step(2, demands, fm);
  EXPECT_GE(out2.loads[0], out.loads[0]);
}

TEST(AntAggregate, ConvergesIntoDeficitBandFromIdle) {
  const double gamma = 0.05;
  const DemandVector demands({Count{2000}, Count{2000}});
  AntAggregate kernel(AntParams{.gamma = gamma});
  const SigmoidFeedback fm(kLambda);
  AggregateSimConfig cfg{.n_ants = 10'000,
                         .rounds = 4000,
                         .seed = 11,
                         .metrics = {.gamma = gamma, .warmup = 2000}};
  const auto res = run_aggregate_sim(kernel, fm, demands, cfg);
  // Post-warmup, every task must sit within the Theorem 3.1 band on average:
  // regret per round <= (5*gamma*d + 3) per task.
  const double band = 2.0 * (5.0 * gamma * 2000.0 + 3.0);
  EXPECT_LT(res.post_warmup_average(), band);
  // And the final loads must be near the demands.
  for (int j = 0; j < 2; ++j) {
    EXPECT_NEAR(static_cast<double>(res.final_loads[static_cast<std::size_t>(j)]),
                2000.0, 5.0 * gamma * 2000.0 + 3.0);
  }
}

TEST(AntAggregate, RecoversFromHostileStart) {
  // All ants crammed onto task 0; self-stabilization must drain the overload
  // and fill task 1.
  const double gamma = 0.05;
  const DemandVector demands({Count{2000}, Count{2000}});
  AntAggregate kernel(AntParams{.gamma = gamma});
  const SigmoidFeedback fm(kLambda);
  AggregateSimConfig cfg{.n_ants = 10'000,
                         .rounds = 6000,
                         .seed = 13,
                         .metrics = {.gamma = gamma, .warmup = 4000},
                         .initial_loads = {Count{10'000}, Count{0}}};
  const auto res = run_aggregate_sim(kernel, fm, demands, cfg);
  EXPECT_NEAR(static_cast<double>(res.final_loads[0]), 2000.0, 350.0);
  EXPECT_NEAR(static_cast<double>(res.final_loads[1]), 2000.0, 350.0);
}

TEST(AntAggregate, TracksDemandChange) {
  const double gamma = 0.05;
  DemandSchedule schedule(uniform_demands(1, 2000));
  schedule.add_change(3001, uniform_demands(1, 3000));
  AntAggregate kernel(AntParams{.gamma = gamma});
  const SigmoidFeedback fm(kLambda);
  AggregateSimConfig cfg{.n_ants = 10'000,
                         .rounds = 8000,
                         .seed = 17,
                         .metrics = {.gamma = gamma}};
  const auto res = run_aggregate_sim(kernel, fm, schedule, cfg);
  EXPECT_NEAR(static_cast<double>(res.final_loads[0]), 3000.0,
              5.0 * gamma * 3000.0 + 50.0);
}

TEST(AntAggregate, StableZoneAbsorbsUnderExactFeedback) {
  // Under exact feedback (no grey zone) a load inside the paper's stable
  // zone [d(1+gamma), d(1+(0.9cs-1)gamma)] must not move at phase
  // boundaries: the first sample always shows overload (no joins) and the
  // second, reduced sample shows lack (no leaves).
  const AntParams params{.gamma = 0.05};
  const Count d = 10'000;
  // Pick the middle of the stable zone.
  const double lo = 1.0 + params.gamma;
  const double hi = 1.0 + (0.9 * params.cs - 1.0) * params.gamma;
  const auto w0 = static_cast<Count>(static_cast<double>(d) * (lo + hi) / 2.0);
  AntAggregate kernel(params);
  const ExactFeedback fm;
  const DemandVector demands({d});
  kernel.reset(Allocation(40'000, {w0}), 23);
  Count committed = w0;
  for (Round t = 1; t <= 400; ++t) {
    const auto out = kernel.step(t, demands, fm);
    if (t % 2 == 0) {
      committed = out.loads[0];
      EXPECT_EQ(committed, w0) << "round " << t;
    }
  }
}

TEST(AntAgent, TinyColonyRunsAndConverges) {
  // Agent engine on a small colony: loads must approach the demand.
  const double gamma = 0.1;
  AntAgent algo(AntParams{.gamma = gamma});
  SigmoidFeedback fm(2.0);
  const DemandVector demands({Count{100}, Count{100}});
  AgentSimConfig cfg{.n_ants = 500,
                     .rounds = 2000,
                     .seed = 31,
                     .metrics = {.gamma = gamma, .warmup = 1000}};
  const auto res = run_agent_sim(algo, fm, demands, cfg);
  EXPECT_NEAR(static_cast<double>(res.final_loads[0]), 100.0, 60.0);
  EXPECT_NEAR(static_cast<double>(res.final_loads[1]), 100.0, 60.0);
  EXPECT_GT(res.switches, 0);
}

// Exact pin of Ant's per-ant automaton (the agent engine defaults to the
// batched runner for `ant`, so nothing else locks this stream): a per-ant
// campaign over every scenario family, under sigmoid noise and under an
// anti-gradient adversary, must reproduce the CSV bytes recorded below. Any
// change to the per-ant feedback stream or to the automaton's draw order
// fails here. If a change is INTENTIONAL, re-pin the constant in the same
// commit: the failure message prints the new value.
TEST(AntAgent, PerAntCampaignCsvIsPinned) {
  test_util::MatrixOptions o;
  o.families = scenario_names();
  o.algos = {"ant"};
  o.demands = {Count{120}, Count{80}, Count{60}};
  o.rounds = 301;
  o.n_ants = 300;
  o.seed = 2026;
  o.replicates = 1;
  o.lambda = 0.2;
  CampaignConfig cfg = test_util::test_matrix(o);
  cfg.noises.push_back({"adv-anti-gradient", [] {
                          return std::make_unique<AdversarialFeedback>(
                              0.05,
                              make_named_adversary("anti-gradient", 0.05));
                        }});
  cfg.engine = Engine::kAgent;
  cfg.sampling = SamplingMode::kPerAnt;
  const CampaignResult result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), scenario_names().size() * 2);
  const std::uint64_t csv_hash = rng::hash_string(result.to_csv());
  EXPECT_EQ(csv_hash, 3609977870818542386ull)
      << "to_csv() FNV-1a is now " << csv_hash;
}

TEST(AntAgent, RejectsTooManyTasks) {
  AntAgent algo(AntParams{.gamma = 0.05});
  std::vector<TaskId> init(10, kIdle);
  EXPECT_THROW(algo.reset(10, kMaxAgentTasks + 1, init, 1),
               std::invalid_argument);
}

TEST(AntAggregate, RegretSlopeScalesWithGamma) {
  // Theorem 3.1: steady-state regret per round ~ 5*gamma*total_demand.
  // Doubling gamma should roughly double the slope (within noise).
  const DemandVector demands({Count{4000}});
  const SigmoidFeedback fm(kLambda);
  auto slope_for = [&](double gamma) {
    AntAggregate kernel(AntParams{.gamma = gamma});
    AggregateSimConfig cfg{.n_ants = 16'000,
                           .rounds = 6000,
                           .seed = 37,
                           .metrics = {.gamma = gamma, .warmup = 3000}};
    return run_aggregate_sim(kernel, fm, demands, cfg).post_warmup_average();
  };
  const double s1 = slope_for(0.04);
  const double s2 = slope_for(0.08);
  EXPECT_GT(s2, 1.3 * s1);
  EXPECT_LT(s2, 3.5 * s1);
}

}  // namespace
}  // namespace antalloc
