// E13 — Remark 3.4: the Theorem 3.1 guarantees survive arbitrarily
// correlated feedback as long as each ant's marginal error probability
// outside the grey zone stays negligible.
//
// We wrap the sigmoid model in the correlated-noise wrapper (a ρ-fraction of
// (round, task) cells give ALL ants one shared draw) and sweep ρ from 0
// (i.i.d.) to 1 (fully shared) as the noise axis of a one-scenario campaign.
// The per-ant marginals are identical across the sweep, so Algorithm Ant's
// steady-state regret must stay flat. The campaign's auto engine resolves to
// the agent engine — the aggregate kernel correctly refuses non-i.i.d.
// models.
#include "noise/correlated.h"
#include "common.h"
#include "sim/campaign.h"

using namespace antalloc;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const Count demand = args.get_int("demand", 500);
  const std::int32_t k = static_cast<std::int32_t>(args.get_int("k", 2));
  const double lambda = args.get_double("lambda", 1.0);
  const double gamma = args.get_double("gamma", 0.05);
  const auto rounds = args.get_int("rounds", 6000);
  const auto replicates = args.get_int("replicates", 6);
  args.check_unknown();

  const DemandVector demands = uniform_demands(k, demand);
  const Count n = 4 * demands.total();
  bench::print_header(
      "E13 / Remark 3.4: correlated feedback leaves the guarantees intact",
      "sweep correlation rho; marginals fixed => regret flat across rho");
  bench::print_gamma_star(lambda, demands, n);

  bench::BenchContext ctx("bench_rmk34_correlated",
                          {"rho", "avg_regret", "ci95", "band_budget",
                           "ratio_vs_rho0"});

  CampaignConfig campaign;
  {
    ScenarioSpec spec;
    spec.name = "constant";
    spec.initial = InitialKind::kIdle;
    campaign.scenarios.push_back(make_scenario(spec, demands, rounds));
  }
  campaign.algos = {AlgoConfig{.name = "ant", .gamma = gamma}};
  for (const double rho : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    campaign.noises.push_back(
        {"rho=" + Table::fmt(rho, 3), [lambda, rho] {
           return std::make_unique<CorrelatedFeedback>(
               std::make_shared<SigmoidFeedback>(lambda), rho);
         }});
  }
  campaign.engine = Engine::kAuto;  // resolves to agent: noise is not i.i.d.
  campaign.n_ants = n;
  campaign.rounds = rounds;
  campaign.seed = 57;
  campaign.replicates = replicates;
  // Common random numbers across the rho axis: ratio_vs_rho0 is a paired
  // comparison, as in the pre-campaign version of this bench.
  campaign.pair_noise_seeds = true;
  campaign.metrics.gamma = gamma;
  campaign.metrics.warmup = rounds / 2;

  const CampaignResult result = run_campaign(campaign);

  double baseline = 0.0;
  const double budget =
      5.0 * gamma * static_cast<double>(demands.total()) + 3.0 * k;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const RunningStats& regret = result.metric(result.cells[i], "regret");
    if (i == 0) baseline = regret.mean();
    ctx.table.add_row({result.cells[i].noise.substr(4),
                       Table::fmt(regret.mean(), 5),
                       Table::fmt(regret.ci_halfwidth(), 3),
                       Table::fmt(budget, 5),
                       Table::fmt(regret.mean() / baseline, 3)});
    // Shape: within the band budget and within 2x of the iid case.
    if (regret.mean() > budget || regret.mean() > 2.0 * baseline) {
      ctx.exit_code = 1;
    }
  }
  return ctx.finish();
}
