// Campaign runner: matrix shape, per-cell engine resolution, tidy output,
// and — the load-bearing property — bit-identical results no matter how many
// threads execute the matrix.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "noise/correlated.h"
#include "noise/sigmoid.h"
#include "parallel/thread_pool.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

using test_util::small_matrix;

TEST(Campaign, MatrixShapeAndLabels) {
  auto cfg = small_matrix();
  cfg.keep_results = true;
  const auto result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 4u);  // 2 scenarios x 2 algos x 1 noise
  // Scenario-major, then algo, then noise.
  EXPECT_EQ(result.cells[0].scenario, cfg.scenarios[0].name);
  EXPECT_EQ(result.cells[0].algo, "ant");
  EXPECT_EQ(result.cells[1].algo, "trivial");
  EXPECT_EQ(result.cells[2].scenario, cfg.scenarios[1].name);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.noise, "sigmoid");
    EXPECT_EQ(cell.engine, Engine::kAggregate);  // auto + iid noise + kernels
    EXPECT_EQ(result.metric(cell, "regret").count(), 3);
    ASSERT_EQ(cell.results.size(), 3u);
    EXPECT_GT(cell.results[0].total_regret, 0.0);
  }
  // find() addresses cells by label.
  EXPECT_NE(result.find("", "trivial"), nullptr);
  EXPECT_EQ(result.find("", "oracle"), nullptr);
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  auto cfg = small_matrix();
  ThreadPool serial(1);
  ThreadPool wide(4);

  cfg.pool = &serial;
  const auto a = run_campaign(cfg);
  cfg.pool = &wide;
  const auto b = run_campaign(cfg);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    for (const char* scalar : {"regret", "violations"}) {
      EXPECT_DOUBLE_EQ(a.metric(a.cells[i], scalar).mean(),
                       b.metric(b.cells[i], scalar).mean())
          << i << " " << scalar;
    }
  }
  // And the rendered artifacts match byte for byte.
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(Campaign, CellsAreSeedSeparated) {
  // The SAME scenario, algo and noise at two different matrix coordinates:
  // any regression to coordinate-free seeding would make the two cells
  // byte-identical, so differing regrets pin per-cell seed separation.
  auto cfg = small_matrix();
  cfg.scenarios.erase(cfg.scenarios.begin() + 1);
  cfg.scenarios.push_back(cfg.scenarios.front());
  cfg.algos = {AlgoConfig{.name = "ant", .gamma = 0.05}};
  const auto result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].scenario, result.cells[1].scenario);
  EXPECT_NE(result.metric(result.cells[0], "regret").mean(),
            result.metric(result.cells[1], "regret").mean());
}

TEST(Campaign, PairedNoiseSeedsShareTrialSeeds) {
  // With pair_noise_seeds, cells differing ONLY in noise reuse replicate
  // seeds (common random numbers): two copies of the same factory under
  // different noise labels must produce identical results.
  auto cfg = small_matrix();
  cfg.algos = {AlgoConfig{.name = "ant", .gamma = 0.05}};
  cfg.noises.push_back(
      {"sigmoid2", [] { return std::make_unique<SigmoidFeedback>(1.0); }});
  cfg.pair_noise_seeds = true;
  const auto result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 4u);  // 2 scenarios x 1 algo x 2 noises
  EXPECT_DOUBLE_EQ(result.metric(result.cells[0], "regret").mean(),
                   result.metric(result.cells[1], "regret").mean());
  cfg.pair_noise_seeds = false;
  const auto unpaired = run_campaign(cfg);
  EXPECT_NE(unpaired.metric(unpaired.cells[0], "regret").mean(),
            unpaired.metric(unpaired.cells[1], "regret").mean());
}

TEST(Campaign, NoiseAxisAndEngineResolution) {
  auto cfg = small_matrix();
  cfg.algos = {AlgoConfig{.name = "ant", .gamma = 0.05}};
  cfg.noises.push_back(
      {"correlated", [] {
         return std::make_unique<CorrelatedFeedback>(
             std::make_shared<SigmoidFeedback>(1.0), 0.5);
       }});
  const auto result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 4u);  // 2 scenarios x 1 algo x 2 noises
  const auto* iid = result.find("", "", "sigmoid");
  const auto* corr = result.find("", "", "correlated");
  ASSERT_NE(iid, nullptr);
  ASSERT_NE(corr, nullptr);
  EXPECT_EQ(iid->engine, Engine::kAggregate);
  EXPECT_EQ(corr->engine, Engine::kAgent);  // non-iid noise forces per-ant
}

TEST(Campaign, TableIsTidy) {
  auto cfg = small_matrix();
  const auto result = run_campaign(cfg);
  const Table table = result.table();
  EXPECT_EQ(table.num_rows(), result.cells.size());
  const std::string csv = result.to_csv();
  EXPECT_NE(csv.find("scenario,algo,noise,engine"), std::string::npos);
  EXPECT_NE(csv.find("single-shock"), std::string::npos);
}

TEST(Campaign, EmptyAxesThrow) {
  auto cfg = small_matrix();
  cfg.scenarios.clear();
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
  cfg = small_matrix();
  cfg.algos.clear();
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
  cfg = small_matrix();
  cfg.noises.clear();
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
  cfg = small_matrix();
  cfg.replicates = 0;
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
}

// Counts finished cells: a refused campaign must not run any.
class CellCounter final : public CampaignProgress {
 public:
  void on_cell_done(const Update&) override { ++cells; }
  int cells = 0;
};

TEST(Campaign, TraceDirRefusesMoreThan64Tasks) {
  test_util::MatrixOptions o;
  o.demands = std::vector<Count>(70, Count{20});
  o.n_ants = 2000;
  o.rounds = 20;
  o.replicates = 1;
  auto cfg = test_util::test_matrix(o);
  const std::filesystem::path dir =
      std::filesystem::path(test_util::make_temp_dir("wide")) / "traces";
  cfg.trace_dir = dir.string();
  CellCounter counter;
  cfg.progress = &counter;
  try {
    run_campaign(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at most 64 tasks"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(counter.cells, 0);
  EXPECT_FALSE(std::filesystem::exists(dir));

  // 64 tasks is the widest colony a trace holds.
  o.demands = std::vector<Count>(64, Count{20});
  cfg = test_util::test_matrix(o);
  cfg.trace_dir = dir.string();
  const CampaignResult traced = run_campaign(cfg);
  EXPECT_EQ(traced.cells.size(), 4u);
  EXPECT_FALSE(std::filesystem::is_empty(dir));
}

}  // namespace
}  // namespace antalloc
