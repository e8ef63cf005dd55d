// Adversarial colony: what happens when the environment actively lies?
//
// Inside the grey zone |deficit| <= gamma_ad * d the adversary controls every
// signal. This example pits Algorithm Ant and Algorithm Precise Adversarial
// against the full adversary gallery — one campaign with the adversaries as
// the noise axis — and shows that (a) both stay close despite worst-case
// lies, and (b) Precise Adversarial additionally almost never makes its ants
// switch tasks (Theorem 3.6).
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/adversarial_colony
#include <cstdio>
#include <memory>

#include "noise/adversarial.h"
#include "sim/campaign.h"

using namespace antalloc;

int main() {
  const Count demand = 3000;
  const DemandVector demands({demand, demand});
  const Count n = 4 * demands.total();
  const double gamma_ad = 0.02;  // adversary owns +-2% of each demand
  const double gamma = 0.05;
  const Round rounds = 6400;

  CampaignConfig campaign;
  {
    ScenarioSpec spec;
    spec.name = "constant";
    Scenario scenario = make_scenario(spec, demands, rounds);
    // Warm start just above the demand (see DESIGN.md: the precise
    // algorithms are steady-state machines; cold-start drains are long).
    const auto warm =
        static_cast<Count>(static_cast<double>(demand) * (1.0 + gamma));
    scenario.initial_loads = {warm, warm};
    campaign.scenarios.push_back(std::move(scenario));
  }
  campaign.algos = {
      AlgoConfig{.name = "ant", .gamma = gamma, .epsilon = 0.5},
      AlgoConfig{.name = "precise-adversarial", .gamma = gamma,
                 .epsilon = 0.5}};
  using AdversaryFactory = std::unique_ptr<GreyZoneAdversary> (*)();
  const std::pair<const char*, AdversaryFactory> gallery[] = {
      {"honest", [] { return make_honest_adversary(); }},
      {"always-lack", [] { return make_always_lack_adversary(); }},
      {"always-overload", [] { return make_always_overload_adversary(); }},
      {"anti-gradient", [] { return make_anti_gradient_adversary(); }},
      {"alternating", [] { return make_alternating_adversary(); }},
  };
  for (const auto& [name, make] : gallery) {
    campaign.noises.push_back({name, [make, gamma_ad] {
                                 return std::make_unique<AdversarialFeedback>(
                                     gamma_ad, make());
                               }});
  }
  campaign.engine = Engine::kAgent;  // per-ant switch counting
  campaign.n_ants = n;
  campaign.rounds = rounds;
  campaign.seed = 11;
  campaign.replicates = 1;
  campaign.metrics.gamma = gamma;

  std::printf("Adversarial grey zone: +-%.0f ants around each demand of %lld\n\n",
              gamma_ad * static_cast<double>(demand),
              static_cast<long long>(demand));

  const CampaignResult result = run_campaign(campaign);
  std::printf("%-16s %-22s %12s %14s\n", "adversary", "algorithm",
              "avg regret", "switches/ant/rd");
  for (const auto& cell : result.cells) {
    std::printf("%-16s %-22s %12.1f %14.5f\n", cell.noise.c_str(),
                cell.algo.c_str(), result.metric(cell, "regret").mean(),
                result.metric(cell, "switches_per_ant_round").mean());
  }
  std::printf("\n(Theorem 3.5 floor: any algorithm pays >= ~gamma_ad*sum(d) = "
              "%.0f per round in the worst case.)\n",
              gamma_ad * static_cast<double>(demands.total()));
  return 0;
}
