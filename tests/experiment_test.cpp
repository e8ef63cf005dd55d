// Tests for the experiment façade: engine selection, replicated runs,
// deterministic seeding, and the extraction helpers.
#include <gtest/gtest.h>

#include "noise/correlated.h"
#include "noise/sigmoid.h"
#include "sim/experiment.h"

namespace antalloc {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.algo.name = "ant";
  cfg.algo.gamma = 0.05;
  cfg.n_ants = 4000;
  cfg.rounds = 1000;
  cfg.seed = 5;
  cfg.metrics.gamma = 0.05;
  cfg.metrics.warmup = 500;
  return cfg;
}

TEST(Experiment, AggregateEngineRuns) {
  auto cfg = base_config();
  SigmoidFeedback fm(1.0);
  const DemandSchedule schedule(uniform_demands(2, 800));
  const auto res = run_experiment(cfg, fm, schedule);
  EXPECT_EQ(res.rounds, 1000);
  EXPECT_GT(res.total_regret, 0.0);
}

TEST(Experiment, AgentEngineRuns) {
  auto cfg = base_config();
  cfg.engine = Engine::kAgent;
  cfg.n_ants = 400;
  SigmoidFeedback fm(1.0);
  const DemandSchedule schedule(uniform_demands(2, 80));
  const auto res = run_experiment(cfg, fm, schedule);
  EXPECT_EQ(res.rounds, 1000);
}

TEST(Experiment, EngineParsingAtTheBoundary) {
  EXPECT_EQ(parse_engine("auto"), Engine::kAuto);
  EXPECT_EQ(parse_engine("aggregate"), Engine::kAggregate);
  EXPECT_EQ(parse_engine("agent"), Engine::kAgent);
  EXPECT_THROW(parse_engine("quantum"), std::invalid_argument);
  EXPECT_EQ(to_string(Engine::kAgent), "agent");

  EXPECT_EQ(parse_initial_kind("idle"), InitialKind::kIdle);
  EXPECT_EQ(parse_initial_kind("random"), InitialKind::kRandom);
  EXPECT_THROW(parse_initial_kind("warm"), std::invalid_argument);
  for (const auto& name : initial_kind_names()) {
    EXPECT_EQ(to_string(parse_initial_kind(name)), name);
  }
}

TEST(Experiment, AutoEngineResolution) {
  const SigmoidFeedback sigmoid(1.0);
  const CorrelatedFeedback correlated(std::make_shared<SigmoidFeedback>(1.0),
                                      0.5);
  const AlgoConfig ant{.name = "ant"};
  // i.i.d. noise + a kernel-backed algorithm: the exact aggregate kernel.
  EXPECT_EQ(resolve_engine(Engine::kAuto, ant, sigmoid), Engine::kAggregate);
  // Correlated noise is not i.i.d. across ants: per-ant simulation.
  EXPECT_EQ(resolve_engine(Engine::kAuto, ant, correlated), Engine::kAgent);
  // The response-threshold baseline has no aggregate kernel.
  EXPECT_EQ(resolve_engine(Engine::kAuto, AlgoConfig{.name = "threshold"},
                           sigmoid),
            Engine::kAgent);
  // The Precise Adversarial kernel is exact only for deterministic feedback
  // (its supports() predicate rejects stochastic models).
  EXPECT_EQ(resolve_engine(Engine::kAuto,
                           AlgoConfig{.name = "precise-adversarial"}, sigmoid),
            Engine::kAgent);
  // Explicit choices pass through untouched.
  EXPECT_EQ(resolve_engine(Engine::kAgent, ant, sigmoid), Engine::kAgent);
}

TEST(Experiment, InitialLoadsOverrideKind) {
  auto cfg = base_config();
  cfg.initial = InitialKind::kAdversarial;   // overridden by explicit loads
  cfg.initial_loads = {Count{800}, Count{800}};
  cfg.rounds = 1;
  cfg.metrics.warmup = 0;
  SigmoidFeedback fm(1.0);
  const DemandSchedule schedule(uniform_demands(2, 800));
  // A warm start exactly on the demands: first-round regret stays far below
  // the adversarial start's ~|800-4000| + 800.
  const auto res = run_experiment(cfg, fm, schedule);
  EXPECT_LT(res.total_regret, 2000.0);

  cfg.initial_loads = {Count{1}};  // wrong task count
  EXPECT_THROW(run_experiment(cfg, fm, schedule), std::invalid_argument);
}

TEST(Experiment, RandomInitialStateIsSeedDeterministic) {
  auto cfg = base_config();
  cfg.initial = InitialKind::kRandom;
  cfg.rounds = 1;
  cfg.metrics.warmup = 0;
  SigmoidFeedback fm(1.0);
  const DemandSchedule schedule(uniform_demands(2, 800));
  const auto a = run_experiment(cfg, fm, schedule);
  const auto b = run_experiment(cfg, fm, schedule);
  EXPECT_DOUBLE_EQ(a.total_regret, b.total_regret);
  cfg.seed = cfg.seed + 1;
  const auto c = run_experiment(cfg, fm, schedule);
  EXPECT_NE(a.total_regret, c.total_regret);
}

TEST(Experiment, InitialAllocationKindRespected) {
  auto cfg = base_config();
  cfg.initial = InitialKind::kAdversarial;
  cfg.rounds = 1;  // one round: hostile start still visible in regret
  cfg.metrics.warmup = 0;
  SigmoidFeedback fm(1.0);
  const DemandSchedule schedule(uniform_demands(2, 800));
  const auto res = run_experiment(cfg, fm, schedule);
  // All 4000 ants on task 0 (demand 800): instantaneous regret near
  // |800-4000| + 800 at the start.
  EXPECT_GT(res.total_regret, 2000.0);
}

TEST(Experiment, ReplicatedRunsAreDeterministicAndDistinct) {
  auto cfg = base_config();
  const DemandSchedule schedule(uniform_demands(2, 800));
  const auto make_model = [] {
    return std::make_unique<SigmoidFeedback>(1.0);
  };
  const auto a = run_replicated_experiment(cfg, make_model, schedule, 4);
  const auto b = run_replicated_experiment(cfg, make_model, schedule, 4);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(a[i].total_regret, b[i].total_regret);
  }
  // Different replicates use different seeds.
  EXPECT_NE(a[0].total_regret, a[1].total_regret);
}

TEST(Experiment, ExtractMetricReadsRegret) {
  auto cfg = base_config();
  const DemandSchedule schedule(uniform_demands(2, 800));
  const auto results = run_replicated_experiment(
      cfg, [] { return std::make_unique<SigmoidFeedback>(1.0); }, schedule, 3);
  const auto regret = extract_metric(results, "regret");
  ASSERT_EQ(regret.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(regret[i], results[i].post_warmup_average());
  }
}

TEST(Experiment, MetricsGammaDefaultsToAlgoGamma) {
  auto cfg = base_config();
  cfg.metrics.gamma = 0.0;  // sentinel: inherit from the algorithm
  SigmoidFeedback fm(1.0);
  const DemandSchedule schedule(uniform_demands(1, 800));
  // Would throw inside MetricsRecorder math only if gamma stayed 0 and the
  // bands degenerated; mostly this checks the run completes sanely.
  const auto res = run_experiment(cfg, fm, schedule);
  EXPECT_GT(res.rounds, 0);
}

}  // namespace
}  // namespace antalloc
