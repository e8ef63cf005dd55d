// Tests for Algorithm Precise Sigmoid: window/median machinery and the
// ε-scaling of the steady-state regret (Theorem 3.2).
#include <gtest/gtest.h>

#include <cmath>

#include "aggregate/aggregate_sim.h"
#include "agent/agent_sim.h"
#include "algo/precise_sigmoid.h"
#include "noise/sigmoid.h"

namespace antalloc {
namespace {

TEST(PreciseSigmoidParams, WindowIsOddAndScalesWithEpsilon) {
  const PreciseSigmoidParams p1{.gamma = 0.05, .epsilon = 0.5};
  const PreciseSigmoidParams p2{.gamma = 0.05, .epsilon = 0.25};
  EXPECT_EQ(p1.window() % 2, 1);
  EXPECT_EQ(p2.window() % 2, 1);
  EXPECT_GT(p2.window(), p1.window());
  // m = ceil(2*10/eps + 1): eps=0.5 -> 41.
  EXPECT_EQ(p1.window(), 41);
  EXPECT_EQ(p1.phase_length(), 82);
}

TEST(PreciseSigmoidParams, LeaveProbabilityScaling) {
  PreciseSigmoidParams p{.gamma = 0.1, .epsilon = 0.5};
  EXPECT_NEAR(p.leave_probability(), 0.5 * 0.1 / (10.0 * 19.0), 1e-15);
  p.verbatim_leave_probability = true;
  EXPECT_NEAR(p.leave_probability(), 0.1 / (10.0 * 19.0), 1e-15);
}

TEST(PreciseSigmoidParams, Validation) {
  EXPECT_THROW(PreciseSigmoidAgent({.gamma = 0.6, .epsilon = 0.5}),
               std::invalid_argument);
  EXPECT_THROW(PreciseSigmoidAgent({.gamma = 0.1, .epsilon = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(PreciseSigmoidAgent({.gamma = 0.1, .epsilon = 1.0}),
               std::invalid_argument);
}

TEST(MajorityThreshold, StrictMajority) {
  EXPECT_EQ(majority_threshold(1), 1);
  EXPECT_EQ(majority_threshold(3), 2);
  EXPECT_EQ(majority_threshold(41), 21);
}

TEST(MedianLackProbability, AmplifiesTowardsCertainty) {
  // Per-sample lack probability 0.8: the median over many samples must be
  // lack with probability much closer to 1.
  const std::vector<double> p5(5, 0.8);
  const std::vector<double> p41(41, 0.8);
  std::vector<double> pmf;  // one buffer, regrown between window sizes
  const double m41 = median_lack_probability(p41, pmf);
  const double m5 = median_lack_probability(p5, pmf);
  EXPECT_GT(m5, 0.8);
  EXPECT_GT(m41, m5);
  EXPECT_GT(m41, 0.999);
}

TEST(MedianLackProbability, FairCoinStaysFair) {
  const std::vector<double> p(41, 0.5);
  std::vector<double> pmf;
  EXPECT_NEAR(median_lack_probability(p, pmf), 0.5, 1e-9);
}

TEST(MedianLackProbability, SingleSampleIsIdentity) {
  const std::vector<double> p{0.3};
  std::vector<double> pmf;
  EXPECT_NEAR(median_lack_probability(p, pmf), 0.3, 1e-12);
}

// Precise Sigmoid's leave step is ~ εγ/(cχ·cd) per phase, so cold starts
// take Θ(cχ·cd/(εγ)) phases to drain the one-time Θ(n) join flood — the
// theorems are t→∞ statements. Steady-state tests therefore warm-start at
// the theoretical operating point just above the demand, W* = d(1 + 2εγ/cχ),
// where the first median is overload-certain (no re-flood) and the paused
// second sample is lack-certain (no drain): the algorithm's stable zone.
Count operating_point(Count demand, const PreciseSigmoidParams& p) {
  const double step = p.epsilon * p.gamma / p.cchi;
  return static_cast<Count>(static_cast<double>(demand) * (1.0 + 2.0 * step));
}

TEST(PreciseSigmoidAggregate, OperatingPointIsStationaryAndNarrow) {
  const double gamma = 0.05;
  const double eps = 0.5;
  PreciseSigmoidAggregate kernel({.gamma = gamma, .epsilon = eps});
  const SigmoidFeedback fm(1.0);
  const DemandVector demands({Count{2000}});
  const Count w_star = operating_point(2000, kernel.params());
  const Round phase = kernel.params().phase_length();
  AggregateSimConfig cfg{.n_ants = 10'000,
                         .rounds = 200 * phase,
                         .seed = 41,
                         .metrics = {.gamma = gamma, .warmup = 50 * phase},
                         .initial_loads = {w_star}};
  const auto res = run_aggregate_sim(kernel, fm, demands, cfg);
  // Steady-state average regret is O(eps * gamma * d), far below the
  // plain-Ant band of ~5*gamma*d.
  EXPECT_LT(res.post_warmup_average(), 2.0 * eps * gamma * 2000.0);
  // Stationary: the load must not have drifted away from the zone.
  EXPECT_NEAR(static_cast<double>(res.final_loads[0]),
              static_cast<double>(w_star), 0.5 * gamma * 2000.0);
}

TEST(PreciseSigmoidAggregate, SmallerEpsilonSmallerRegret) {
  // The step size is εγd/cχ ants; the theorem's regime needs that to be
  // >> 1 (the paper assumes d = Ω(polylog n / γ²)), so this sweep uses a
  // large demand where even ε = 1/8 keeps a 100-ant margin.
  const double gamma = 0.2;
  const SigmoidFeedback fm(0.05);
  const DemandVector demands({Count{40'000}});
  auto regret_for = [&](double eps) {
    PreciseSigmoidAggregate kernel({.gamma = gamma, .epsilon = eps});
    const Round phase = kernel.params().phase_length();
    AggregateSimConfig cfg{
        .n_ants = 100'000,
        .rounds = 150 * phase,
        .seed = 43,
        .metrics = {.gamma = gamma, .warmup = 50 * phase},
        .initial_loads = {operating_point(40'000, kernel.params())}};
    return run_aggregate_sim(kernel, fm, demands, cfg).post_warmup_average();
  };
  const double r_half = regret_for(0.5);
  const double r_eighth = regret_for(0.125);
  // Theorem 3.2: regret scales linearly in epsilon; 4x smaller epsilon must
  // cut the regret by at least 2x.
  EXPECT_LT(r_eighth, 0.5 * r_half);
}

TEST(PreciseSigmoidAgent, SmallColonyStaysNearDemand) {
  const double gamma = 0.1;
  PreciseSigmoidAgent algo({.gamma = gamma, .epsilon = 0.5});
  SigmoidFeedback fm(2.0);
  const DemandVector demands({Count{150}});
  const Round phase = algo.params().phase_length();
  AgentSimConfig cfg{.n_ants = 400,
                     .rounds = 60 * phase,
                     .seed = 47,
                     .metrics = {.gamma = gamma, .warmup = 30 * phase},
                     .initial_loads = {Count{156}}};  // just above demand
  const auto res = run_agent_sim(algo, fm, demands, cfg);
  EXPECT_NEAR(static_cast<double>(res.final_loads[0]), 150.0, 40.0);
}

TEST(PreciseSigmoidAgent, AssignmentsFrozenInsideWindows) {
  // During sampling windows (any round except r = m and r = 0 of a phase)
  // no assignment may change.
  PreciseSigmoidAgent algo({.gamma = 0.05, .epsilon = 0.5});
  SigmoidFeedback fm(1.0);
  const Count n = 200;
  const std::int32_t k = 2;
  std::vector<TaskId> assignment(static_cast<std::size_t>(n), kIdle);
  for (std::size_t i = 0; i < 80; ++i) assignment[i] = 0;
  for (std::size_t i = 80; i < 150; ++i) assignment[i] = 1;
  algo.reset(n, k, assignment, 53);

  const auto m = static_cast<Round>(algo.params().window());
  const Round phase = algo.params().phase_length();
  const std::vector<double> deficits{10.0, -10.0};
  const std::vector<Count> demands{Count{90}, Count{60}};

  std::vector<TaskId> next(assignment.size(), kIdle);
  for (Round t = 1; t <= 2 * phase; ++t) {
    const std::vector<TaskId> before(assignment.begin(), assignment.end());
    const FeedbackAccess fb(fm, t, deficits, demands, 53);
    algo.step(t, fb, assignment, next);
    assignment.swap(next);
    const Round r = t % phase;
    if (r != 0 && r != m) {
      EXPECT_EQ(before, assignment) << "assignments moved at r=" << r;
    }
  }
}

}  // namespace
}  // namespace antalloc
