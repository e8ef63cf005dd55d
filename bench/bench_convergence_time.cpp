// E16 — Convergence time (the [Cornejo et al. DISC'14] lens on the same
// system): how many rounds until every deficit first enters the Theorem 3.1
// band, as a function of the learning rate γ and the colony size n?
//
// Theory predicts the transient is dominated by draining the one-time join
// flood at rate ~γ/(2·cd) per phase: time-to-band ~ (2·cd/γ)·ln(n/Σd),
// i.e. ∝ 1/γ at fixed shape and only logarithmic in n. Both shapes are
// checked. Built on the replicated experiment façade + the streaming
// "convergence" metric.
#include <memory>

#include "common.h"

using namespace antalloc;

namespace {

// Rounds until every deficit first enters the band, over `replicates`
// seeded runs; a run that never enters counts as the whole horizon.
RunningStats time_to_band(double gamma, Count n, Count demand, double lambda,
                          std::uint64_t seed, std::int64_t replicates) {
  const Round rounds = 60'000;
  ExperimentConfig cfg;
  cfg.algo = AlgoConfig{.name = "ant", .gamma = gamma};
  cfg.n_ants = n;
  cfg.rounds = rounds;
  cfg.seed = seed;
  // The band is 5*gamma*d at the algorithm's own gamma; the recorder's
  // default band gamma is a fixed 0.01.
  cfg.metrics.gamma = gamma;
  cfg.metrics.names = {"convergence"};
  const auto results = run_replicated_experiment(
      cfg, [&] { return std::make_unique<SigmoidFeedback>(lambda); },
      DemandSchedule(DemandVector({demand, demand})), replicates);
  RunningStats stats;
  for (const double first : extract_metric(results, "convergence_round")) {
    stats.add(first < 0.0 ? static_cast<double>(rounds) : first);
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const Count demand = args.get_int("demand", 20'000);
  const double lambda = args.get_double("lambda", 0.035);
  const auto replicates = args.get_int("replicates", 4);
  args.check_unknown();

  bench::print_header(
      "E16 / convergence time (DISC'14 lens): rounds to first enter the "
      "5*gamma*d band",
      "time ~ (2cd/gamma)*ln(overload ratio): ~1/gamma in gamma, ~log in n");

  bench::BenchContext ctx("bench_convergence_time",
                          {"sweep", "gamma", "n", "rounds_to_band", "ci95",
                           "gamma*time (should be ~const)"});

  // Sweep gamma at fixed n.
  const Count n_fixed = 8 * demand;
  double first_product = 0.0;
  for (const double gamma : {0.025, 0.05, 0.0625}) {
    const RunningStats s =
        time_to_band(gamma, n_fixed, demand, lambda, 5, replicates);
    const double product = gamma * s.mean();
    if (first_product == 0.0) first_product = product;
    ctx.table.add_row({"gamma", Table::fmt(gamma, 4), Table::fmt(n_fixed),
                       Table::fmt(s.mean(), 5),
                       Table::fmt(s.ci_halfwidth(), 3),
                       Table::fmt(product, 4)});
    // ~1/gamma scaling: the product should stay within 3x of the first.
    if (product > 3.0 * first_product || product < first_product / 3.0) {
      ctx.exit_code = 1;
    }
  }

  // Sweep n at fixed gamma: only the flood size (and hence a log factor)
  // changes.
  const double gamma_fixed = 0.05;
  double smallest = 0.0;
  double largest = 0.0;
  for (const Count mult : {4, 16, 64}) {
    const Count n = mult * 2 * demand;
    const RunningStats s =
        time_to_band(gamma_fixed, n, demand, lambda, 9, replicates);
    if (smallest == 0.0) smallest = s.mean();
    largest = s.mean();
    ctx.table.add_row({"n", Table::fmt(gamma_fixed, 4), Table::fmt(n),
                       Table::fmt(s.mean(), 5),
                       Table::fmt(s.ci_halfwidth(), 3),
                       Table::fmt(gamma_fixed * s.mean(), 4)});
  }
  // 16x more ants must cost far less than 16x the time (log, not linear).
  if (largest > 6.0 * smallest) ctx.exit_code = 1;
  return ctx.finish();
}
