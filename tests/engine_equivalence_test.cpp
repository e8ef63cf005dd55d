// Distributional-equivalence property tests: the aggregate kernel of each
// algorithm must induce the same law on the load process as the per-ant
// simulation. We compare replicate means of (a) steady-state loads and
// (b) average regret, with tolerances derived from the replicate spread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "aggregate/aggregate_sim.h"
#include "agent/agent_sim.h"
#include "algo/registry.h"
#include "noise/adversarial.h"
#include "noise/sigmoid.h"
#include "parallel/trial_runner.h"
#include "sim/campaign.h"
#include "stats/summary.h"

namespace antalloc {
namespace {

struct EquivalenceCase {
  std::string algo;
  std::string noise;  // "sigmoid" or "adversarial"
  double gamma;
  Round rounds;
};

std::unique_ptr<FeedbackModel> make_noise(const std::string& kind) {
  if (kind == "sigmoid") return std::make_unique<SigmoidFeedback>(0.5);
  return std::make_unique<AdversarialFeedback>(0.03, make_honest_adversary());
}

class EngineEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EngineEquivalence, MeansAgree) {
  const auto param = GetParam();
  constexpr Count kAnts = 2000;
  const DemandVector demands({Count{400}, Count{300}});
  constexpr int kReplicates = 12;

  AlgoConfig algo_cfg;
  algo_cfg.name = param.algo;
  algo_cfg.gamma = param.gamma;
  algo_cfg.epsilon = 0.5;

  const Round warmup = param.rounds / 2;

  RunningStats agent_load0;
  RunningStats agent_regret;
  const auto agent_results = run_sim_trials(
      kReplicates, 1000, [&](std::int64_t, std::uint64_t seed) {
        auto algo = make_agent_algorithm(algo_cfg);
        auto fm = make_noise(param.noise);
        AgentSimConfig cfg{.n_ants = kAnts,
                           .rounds = param.rounds,
                           .seed = seed,
                           .metrics = {.gamma = param.gamma, .warmup = warmup}};
        return run_agent_sim(*algo, *fm, demands, cfg);
      });
  for (const auto& r : agent_results) {
    agent_load0.add(static_cast<double>(r.final_loads[0]));
    agent_regret.add(r.post_warmup_average());
  }

  RunningStats agg_load0;
  RunningStats agg_regret;
  const auto agg_results = run_sim_trials(
      kReplicates, 2000, [&](std::int64_t, std::uint64_t seed) {
        auto kernel = make_aggregate_kernel(algo_cfg);
        auto fm = make_noise(param.noise);
        AggregateSimConfig cfg{.n_ants = kAnts,
                               .rounds = param.rounds,
                               .seed = seed,
                               .metrics = {.gamma = param.gamma,
                                           .warmup = warmup}};
        return run_aggregate_sim(*kernel, *fm, demands, cfg);
      });
  for (const auto& r : agg_results) {
    agg_load0.add(static_cast<double>(r.final_loads[0]));
    agg_regret.add(r.post_warmup_average());
  }

  // Tolerance: 4x the combined standard error plus a small absolute floor
  // (the two engines cannot be bitwise equal — different RNG pathways).
  const double load_tol =
      4.0 * std::sqrt(agent_load0.stderr_mean() * agent_load0.stderr_mean() +
                      agg_load0.stderr_mean() * agg_load0.stderr_mean()) +
      6.0;
  EXPECT_NEAR(agent_load0.mean(), agg_load0.mean(), load_tol)
      << param.algo << "/" << param.noise;

  const double regret_tol =
      4.0 * std::sqrt(agent_regret.stderr_mean() * agent_regret.stderr_mean() +
                      agg_regret.stderr_mean() * agg_regret.stderr_mean()) +
      0.15 * std::max(agent_regret.mean(), agg_regret.mean()) + 3.0;
  EXPECT_NEAR(agent_regret.mean(), agg_regret.mean(), regret_tol)
      << param.algo << "/" << param.noise;
}

// Two-sample Kolmogorov–Smirnov statistic: sup |F_a - F_b| over the pooled
// sample. Both inputs are copied and sorted.
double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    // Consume ALL entries tied at the current value from both samples
    // before measuring, so ties (point masses from deterministic
    // algorithms) do not inflate the statistic.
    const double x = std::min(a[ia], b[ib]);
    while (ia < a.size() && a[ia] == x) ++ia;
    while (ib < b.size() && b[ib] == x) ++ib;
    d = std::max(d, std::abs(static_cast<double>(ia) /
                                 static_cast<double>(a.size()) -
                             static_cast<double>(ib) /
                                 static_cast<double>(b.size())));
  }
  return d;
}

// First slice of the ROADMAP parity audit: sweep the FULL scenario registry
// against every algorithm that has an aggregate kernel, and compare the two
// engines' post-warmup regret distributions — a KS bound on the replicate
// samples plus the mean agreement the spot checks above use. The KS
// threshold is conservative (with 10-vs-10 replicates it only trips when
// the supports are essentially disjoint), but that is exactly the gross
// divergence a kernel bug produces; tighter distributional tests need more
// replicates than a unit test budget allows.
TEST(EngineEquivalenceRegistry, RegretDistributionsAgreeAcrossScenarioZoo) {
  // Sized so that every scenario segment stays inside Assumption 2.1's
  // sum(d) <= n/2 even after the largest registered scaling (~2.9x for the
  // default staircase), keeping this sweep in the regime the paper's bounds
  // speak to. The out-of-model regime (sum d > n/2, idle pool empties) is
  // pinned separately by EngineEquivalenceOutOfModel below.
  const DemandVector base({Count{80}, Count{60}});
  constexpr Count kAnts = 800;
  constexpr Round kRounds = 400;
  constexpr int kReplicates = 10;
  constexpr double kGamma = 0.05;

  const auto scenarios = registry_scenarios(base, kRounds, /*seed=*/5);
  for (const auto& scenario : scenarios) {
    for (const auto& algo_name : algorithm_names()) {
      if (!has_aggregate_kernel(algo_name)) continue;
      SCOPED_TRACE(scenario.name + " / " + algo_name);

      AlgoConfig algo_cfg;
      algo_cfg.name = algo_name;
      algo_cfg.gamma = kGamma;
      algo_cfg.epsilon = 0.5;

      // Kernels that refuse stochastic models (Precise Adversarial is
      // exact only under deterministic feedback) get the honest grey-zone
      // adversary; everything else runs the stochastic sigmoid model. Ask
      // the kernel itself so this pairing can never drift out of sync.
      const bool adversarial =
          !make_aggregate_kernel(algo_cfg)->supports(SigmoidFeedback(0.5));
      const auto make_fm = [&]() -> std::unique_ptr<FeedbackModel> {
        if (adversarial) {
          return std::make_unique<AdversarialFeedback>(
              0.03, make_honest_adversary());
        }
        return std::make_unique<SigmoidFeedback>(0.5);
      };

      ExperimentConfig cfg;
      cfg.algo = algo_cfg;
      cfg.n_ants = kAnts;
      cfg.rounds = kRounds;
      cfg.initial = scenario.initial;
      cfg.metrics = {.gamma = kGamma, .warmup = kRounds / 2};

      cfg.engine = Engine::kAgent;
      cfg.sampling = SamplingMode::kPerAnt;  // pin the legacy stream arm
      cfg.seed = 1000;
      const auto agent_regret = extract_metric(
          run_replicated_experiment(cfg, make_fm, scenario.schedule,
                                    kReplicates),
          "regret");
      cfg.engine = Engine::kAggregate;
      cfg.seed = 2000;
      const auto agg_regret = extract_metric(
          run_replicated_experiment(cfg, make_fm, scenario.schedule,
                                    kReplicates),
          "regret");

      const RunningStats agent_stats = summarize(agent_regret);
      const RunningStats agg_stats = summarize(agg_regret);
      const double mean_tol =
          4.0 * std::sqrt(agent_stats.stderr_mean() * agent_stats.stderr_mean() +
                          agg_stats.stderr_mean() * agg_stats.stderr_mean()) +
          0.15 * std::max(agent_stats.mean(), agg_stats.mean()) + 3.0;
      EXPECT_NEAR(agent_stats.mean(), agg_stats.mean(), mean_tol);
      EXPECT_LE(ks_statistic(agent_regret, agg_regret), 0.8)
          << "agent " << agent_stats.mean() << " vs aggregate "
          << agg_stats.mean();

      // Third arm: the batched agent fast path, for algorithms that offer a
      // runner and i.i.d. noise (the adversarial pairing is per-ant and
      // would silently fall back — skip it to keep this arm meaningful).
      // The batched stream differs bit-wise from both others, so this is a
      // genuine third sample of the same law across the full scenario zoo,
      // lifecycle families included.
      const bool has_runner =
          make_agent_algorithm(algo_cfg)->batched_runner() != nullptr;
      if (has_runner && !adversarial) {
        cfg.engine = Engine::kAgent;
        cfg.sampling = SamplingMode::kBatched;
        cfg.seed = 3000;
        const auto batched_regret = extract_metric(
            run_replicated_experiment(cfg, make_fm, scenario.schedule,
                                      kReplicates),
            "regret");
        const RunningStats batched_stats = summarize(batched_regret);
        const double batched_tol =
            4.0 * std::sqrt(batched_stats.stderr_mean() *
                                batched_stats.stderr_mean() +
                            agent_stats.stderr_mean() *
                                agent_stats.stderr_mean()) +
            0.15 * std::max(batched_stats.mean(), agent_stats.mean()) + 3.0;
        EXPECT_NEAR(batched_stats.mean(), agent_stats.mean(), batched_tol);
        EXPECT_LE(ks_statistic(batched_regret, agent_regret), 0.8)
            << "batched " << batched_stats.mean() << " vs per-ant "
            << agent_stats.mean();
      }
    }
  }
}

// Out-of-model regime: sum d > n/2 (Assumption 2.1 violated), so the idle
// pool can empty and "capacity clamping" decides who gets the scarce ants.
// The contract, pinned here and documented in ARCHITECTURE.md: NEITHER
// engine has any extra clamp — both draw joins from the same finite idle
// pool (the agent engine as independent per-ant categorical choices, the
// kernels as one multinomial with the identical per-ant marginals), which
// is the same law. Two sub-regimes: n/2 < sum d < n, where the pool empties
// intermittently, and sum d > n, where the colony saturates and the regret
// floor sum d - n is unavoidable.
TEST(EngineEquivalenceOutOfModel, IdlePoolExhaustionAgrees) {
  constexpr Count kAnts = 800;
  constexpr Round kRounds = 400;
  constexpr int kReplicates = 10;
  constexpr double kGamma = 0.05;

  const std::vector<DemandVector> regimes = {
      DemandVector({Count{300}, Count{250}}),  // n/2 < sum d = 550 < n
      DemandVector({Count{500}, Count{450}}),  // sum d = 950 > n: saturated
  };
  for (const auto& demands : regimes) {
    for (const std::string algo_name : {"ant", "trivial"}) {
      SCOPED_TRACE("sum_d=" + std::to_string(demands.total()) + " / " +
                   algo_name);
      AlgoConfig algo_cfg;
      algo_cfg.name = algo_name;
      algo_cfg.gamma = kGamma;

      ExperimentConfig cfg;
      cfg.algo = algo_cfg;
      cfg.n_ants = kAnts;
      cfg.rounds = kRounds;
      cfg.initial = InitialKind::kUniform;
      cfg.metrics = {.gamma = kGamma, .warmup = kRounds / 2};
      const auto make_fm = [] {
        return std::make_unique<SigmoidFeedback>(0.5);
      };
      const DemandSchedule schedule(demands);

      cfg.engine = Engine::kAgent;
      cfg.sampling = SamplingMode::kPerAnt;  // pin the legacy stream arm
      cfg.seed = 1000;
      const auto agent_regret = extract_metric(
          run_replicated_experiment(cfg, make_fm, schedule, kReplicates),
          "regret");
      cfg.engine = Engine::kAggregate;
      cfg.seed = 2000;
      const auto agg_regret = extract_metric(
          run_replicated_experiment(cfg, make_fm, schedule, kReplicates),
          "regret");

      // Batched arm: the idle-pool clamp must agree out of model too (joins
      // are drawn from the same finite pool in all three realizations).
      cfg.engine = Engine::kAgent;
      cfg.sampling = SamplingMode::kBatched;
      cfg.seed = 3000;
      const auto batched_regret = extract_metric(
          run_replicated_experiment(cfg, make_fm, schedule, kReplicates),
          "regret");

      const RunningStats agent_stats = summarize(agent_regret);
      const RunningStats agg_stats = summarize(agg_regret);
      const RunningStats batched_stats = summarize(batched_regret);
      if (algo_name == "ant") {  // trivial has no batched runner: falls back
        const double batched_tol =
            4.0 * std::sqrt(batched_stats.stderr_mean() *
                                batched_stats.stderr_mean() +
                            agent_stats.stderr_mean() *
                                agent_stats.stderr_mean()) +
            0.15 * std::max(batched_stats.mean(), agent_stats.mean()) + 3.0;
        EXPECT_NEAR(batched_stats.mean(), agent_stats.mean(), batched_tol);
        EXPECT_LE(ks_statistic(batched_regret, agent_regret), 0.8)
            << "batched " << batched_stats.mean() << " vs per-ant "
            << agent_stats.mean();
      }
      const double mean_tol =
          4.0 * std::sqrt(agent_stats.stderr_mean() * agent_stats.stderr_mean() +
                          agg_stats.stderr_mean() * agg_stats.stderr_mean()) +
          0.15 * std::max(agent_stats.mean(), agg_stats.mean()) + 3.0;
      EXPECT_NEAR(agent_stats.mean(), agg_stats.mean(), mean_tol);
      EXPECT_LE(ks_statistic(agent_regret, agg_regret), 0.8)
          << "agent " << agent_stats.mean() << " vs aggregate "
          << agg_stats.mean();
      // The saturated regime has a hard floor: every round at least
      // sum d - n regret. Both engines must sit on or above it.
      if (demands.total() > kAnts) {
        const double floor =
            static_cast<double>(demands.total() - kAnts);
        EXPECT_GE(agent_stats.mean(), floor);
        EXPECT_GE(agg_stats.mean(), floor);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, EngineEquivalence,
    ::testing::Values(
        EquivalenceCase{"ant", "sigmoid", 0.05, 1200},
        EquivalenceCase{"ant", "adversarial", 0.05, 1200},
        EquivalenceCase{"trivial", "sigmoid", 0.05, 600},
        EquivalenceCase{"sharp-threshold", "sigmoid", 0.05, 600},
        EquivalenceCase{"precise-sigmoid", "sigmoid", 0.05, 1640},
        EquivalenceCase{"precise-adversarial", "adversarial", 0.05, 1600}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      std::string name = info.param.algo + "_" + info.param.noise;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace antalloc
