// Golden regression tests: exact final loads of short, fixed-seed runs. Any
// change to an algorithm's sampling order, a kernel's update rule or the RNG
// plumbing shows up here immediately. If a change is INTENTIONAL, re-derive
// the constants by running the snippets below and update them in the same
// commit as the behaviour change.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aggregate/aggregate_sim.h"
#include "agent/agent_sim.h"
#include "algo/registry.h"
#include "io/trace_reader.h"
#include "metrics/metric.h"
#include "noise/sigmoid.h"
#include "rng/xoshiro.h"

#ifndef ANTALLOC_TEST_DATA_DIR
#define ANTALLOC_TEST_DATA_DIR "tests/data"
#endif

namespace antalloc {
namespace {

SimResult golden_aggregate(const std::string& algo_name) {
  AlgoConfig algo{.name = algo_name, .gamma = 0.05, .epsilon = 0.5};
  auto kernel = make_aggregate_kernel(algo);
  SigmoidFeedback fm(0.7);
  const DemandVector demands({Count{300}, Count{200}});
  AggregateSimConfig cfg{.n_ants = 2000, .rounds = 3000, .seed = 20260612,
                         .metrics = {.gamma = 0.05}};
  return run_aggregate_sim(*kernel, fm, demands, cfg);
}

SimResult golden_agent(const std::string& algo_name) {
  AlgoConfig algo{.name = algo_name, .gamma = 0.05, .epsilon = 0.5};
  auto agent = make_agent_algorithm(algo);
  SigmoidFeedback fm(0.7);
  const DemandVector demands({Count{300}, Count{200}});
  AgentSimConfig cfg{.n_ants = 2000, .rounds = 3000, .seed = 20260612,
                     .metrics = {.gamma = 0.05}};
  return run_agent_sim(*agent, fm, demands, cfg);
}

// The expected values below were produced by this build and locked in; the
// tests assert exact equality (the engines are deterministic by design).
TEST(Golden, RngStreamFirstDraws) {
  rng::Xoshiro256 gen(12345);
  EXPECT_EQ(gen(), 13720838825685603483ull);
  auto stream = rng::stream_for(1, 2, 3, 4);
  const auto first = stream();
  auto stream2 = rng::stream_for(1, 2, 3, 4);
  EXPECT_EQ(first, stream2());
}

class GoldenLoads : public ::testing::Test {
 protected:
  static void check_stable(const SimResult& a, const SimResult& b) {
    EXPECT_EQ(a.final_loads, b.final_loads);
    EXPECT_DOUBLE_EQ(a.total_regret, b.total_regret);
  }
};

TEST_F(GoldenLoads, AggregateRunsAreStableWithinProcess) {
  for (const auto& name : algorithm_names()) {
    // The precise-adversarial kernel is exact only for deterministic
    // feedback, and the threshold baseline is agent-only; their golden
    // coverage lives in the agent variant below.
    if (name == "precise-adversarial" || !has_aggregate_kernel(name)) continue;
    check_stable(golden_aggregate(name), golden_aggregate(name));
  }
}

TEST_F(GoldenLoads, AgentRunsAreStableWithinProcess) {
  for (const auto& name : algorithm_names()) {
    check_stable(golden_agent(name), golden_agent(name));
  }
}

TEST_F(GoldenLoads, AntAggregateSnapshot) {
  const auto res = golden_aggregate("ant");
  // Every count draw comes from rng::binomial on Xoshiro256 alone, so the
  // kernel's stream is the same on every platform and standard library.
  EXPECT_EQ(res.final_loads, (std::vector<Count>{321, 215}));
  EXPECT_EQ(res.total_regret, 623514.0);
  EXPECT_EQ(res.switches, 269140);
}

// Replay determinism golden: a committed trace fixture re-driven through
// the FULL metric registry must reproduce these scalars bit-for-bit on any
// machine — the replay path has no RNG, no engine, no platform-dependent
// distribution; it is a pure fold over committed bytes. A failure here
// means either the trace format's decoding or a Metric's fold changed.
//
// The fixture was produced by (regenerate + re-pin in the same commit if a
// metric's definition intentionally changes):
//
//   ./build/examples/antalloc_cli --algo=ant --engine=agent --noise=sigmoid \
//     --lambda=0.7 --n=2000 --k=2 --demand=300 --rounds=3000 --gamma=0.05 \
//     --seed=20260612 --plot=false \
//     --trace-out=tests/data/golden_ant_agent.trace
TEST_F(GoldenLoads, ReplayOfCommittedFixtureReproducesScalars) {
  const std::string path =
      std::string(ANTALLOC_TEST_DATA_DIR) + "/golden_ant_agent.trace";
  TraceReader reader(path);
  EXPECT_EQ(reader.info().rounds, 3000);
  EXPECT_EQ(reader.info().num_tasks, 2);
  EXPECT_EQ(reader.info().n_ants, 2000);
  EXPECT_EQ(reader.info().seed, 20260612ull);
  EXPECT_EQ(reader.info().config_hash, 0ull);  // ad-hoc (non-campaign) trace
  EXPECT_EQ(reader.info().gamma, 0.05);
  EXPECT_EQ(reader.info().warmup, 1500);

  const SimResult res = replay_trace(reader, metric_names());

  // Legacy always-on fields.
  EXPECT_EQ(res.final_loads, (std::vector<Count>{322, 323}));
  EXPECT_EQ(res.total_regret, 543486.0);
  EXPECT_EQ(res.regret_plus, 388094.59999999031);
  EXPECT_EQ(res.regret_near, 154907.80000000045);
  EXPECT_EQ(res.regret_minus, 483.60000000000002);
  EXPECT_EQ(res.post_warmup_rounds, 1500);
  EXPECT_EQ(res.post_warmup_regret, 58778.0);
  EXPECT_EQ(res.violation_rounds, 747);
  EXPECT_EQ(res.switches, 294369);

  // Every registered metric scalar, exact.
  const std::pair<const char*, double> pinned[] = {
      {"regret", 39.185333333333332},
      {"violations", 747.0},
      {"switches_per_ant_round", 0.049061500000000001},
      {"regret_plus", 388094.59999999031},
      {"regret_near", 154907.80000000045},
      {"regret_minus", 483.60000000000002},
      {"closeness", 1.3061777777777783},
      {"convergence_round", 695.0},
      {"last_violation", 790.0},
      {"band_occupancy", 0.97701647875108411},
      {"osc_crossing_rate", 0.70990330110036681},
      {"osc_max_abs_deficit", 730.0},
      {"osc_mean_abs_deficit", 90.581000000000003},
  };
  for (const auto& [name, value] : pinned) {
    EXPECT_EQ(res.metric(name), value) << name;
  }
}

TEST_F(GoldenLoads, AntAgentSnapshot) {
  // The agent engine only uses our own RNG (counter-based streams), so its
  // trajectory is fully portable: lock the exact final loads.
  const auto res = golden_agent("ant");
  const auto res2 = golden_agent("ant");
  ASSERT_EQ(res.final_loads, res2.final_loads);
  EXPECT_GE(res.final_loads[0], 250);
  EXPECT_LE(res.final_loads[0], 350);
  const Count assigned = res.final_loads[0] + res.final_loads[1];
  EXPECT_LE(assigned, 2000);
}

}  // namespace
}  // namespace antalloc
