// Count-stream golden for the aggregate engine: a campaign over every
// scenario family and all five count-level kernels (ant, precise-sigmoid,
// trivial, sharp-threshold, oracle) must reproduce the exact CSV bytes and
// campaign_config_hash recorded below. The colony is large enough that the
// kernels' count draws take every rng::binomial regime (bit sum, inversion
// and BTRD), and every draw comes from Xoshiro256 alone, so the bytes are the
// same on every platform and standard library. Any change to the sampler, a
// kernel's draw order or its update rule fails here.
//
// If a change is INTENTIONAL, re-pin both constants in the same commit: the
// failure message prints the new values.
#include <gtest/gtest.h>

#include <string>

#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "sim/scenario.h"
#include "testing_util.h"

namespace antalloc {
namespace {

CampaignConfig kernel_matrix() {
  test_util::MatrixOptions o;
  o.families = scenario_names();
  o.algos = {"ant", "precise-sigmoid", "trivial", "sharp-threshold", "oracle"};
  o.demands = {Count{3000}, Count{2000}, Count{1500}};
  o.rounds = 600;
  o.n_ants = 20'000;
  o.seed = 2026;
  o.replicates = 2;
  o.lambda = 0.2;
  CampaignConfig cfg = test_util::test_matrix(o);
  cfg.engine = Engine::kAggregate;
  return cfg;
}

TEST(AggregateGolden, CampaignCsvAndConfigHashArePinned) {
  const CampaignConfig cfg = kernel_matrix();
  const CampaignResult result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), scenario_names().size() * 5);
  for (const CampaignCell& cell : result.cells) {
    EXPECT_EQ(cell.engine, Engine::kAggregate)
        << cell.scenario << "/" << cell.algo;
  }
  const std::uint64_t csv_hash = rng::hash_string(result.to_csv());
  const std::uint64_t config_hash = campaign_config_hash(cfg);
  EXPECT_EQ(csv_hash, 8599348392184099722ull)
      << "to_csv() FNV-1a is now " << csv_hash;
  EXPECT_EQ(config_hash, 17666137130843751784ull)
      << "campaign_config_hash is now " << config_hash;
}

}  // namespace
}  // namespace antalloc
