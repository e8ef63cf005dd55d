// Per-ant stream golden for the agent algorithms that have no other
// per-ant pin. golden_regression_test locks `ant` on the agent engine; this
// file locks threshold, precise-adversarial, precise-sigmoid and trivial:
// a small per-ant campaign over every scenario family, under sigmoid noise
// and under an anti-gradient adversary, must reproduce the exact CSV bytes
// and campaign_config_hash recorded below. Any change to the per-ant
// feedback stream (the (seed, t, ant, task) derivation, the lack test) or
// to an algorithm's draw order fails here.
//
// If a change is INTENTIONAL, re-pin both constants in the same commit: the
// failure message prints the new values.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "noise/adversarial.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "sim/scenario.h"
#include "testing_util.h"

namespace antalloc {
namespace {

CampaignConfig per_ant_matrix() {
  test_util::MatrixOptions o;
  o.families = scenario_names();
  o.algos = {"threshold", "precise-adversarial", "precise-sigmoid", "trivial"};
  o.demands = {Count{120}, Count{80}, Count{60}};
  // One full precise-adversarial phase (320 rounds) plus its next start.
  o.rounds = 330;
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
  return cfg;
}

TEST(AgentPerAntGolden, CampaignCsvAndConfigHashArePinned) {
  const CampaignConfig cfg = per_ant_matrix();
  const CampaignResult result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), scenario_names().size() * 4 * 2);
  for (const CampaignCell& cell : result.cells) {
    EXPECT_EQ(cell.engine, Engine::kAgent) << cell.scenario << "/" << cell.algo;
  }
  const std::uint64_t csv_hash = rng::hash_string(result.to_csv());
  const std::uint64_t config_hash = campaign_config_hash(cfg);
  EXPECT_EQ(csv_hash, 12813025245447655501ull)
      << "to_csv() FNV-1a is now " << csv_hash;
  EXPECT_EQ(config_hash, 4640090545578507745ull)
      << "campaign_config_hash is now " << config_hash;
}

}  // namespace
}  // namespace antalloc
