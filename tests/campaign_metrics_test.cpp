// Metric selection through the campaign stack: dynamic per-scalar columns,
// the metric list in the config hash (shards with different selections
// refuse to merge), the v3 shard disk round trip with custom metrics, and
// the clear version error on v1 and v2 shard directories.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "io/campaign_io.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

namespace fs = std::filesystem;

using test_util::expect_stats_identical;
using test_util::make_temp_dir;
using test_util::metric_matrix;

TEST(CampaignMetrics, CellsCarryPerScalarStats) {
  const auto cfg =
      metric_matrix({"regret", "convergence", "oscillation"});
  const CampaignResult result = run_campaign(cfg);
  EXPECT_EQ(result.metrics,
            (std::vector<std::string>{"regret", "convergence",
                                      "oscillation"}));
  const auto specs = result.scalar_columns();
  ASSERT_EQ(specs.size(), 7u);  // 1 + 3 + 3 scalars
  for (const CampaignCell& cell : result.cells) {
    ASSERT_EQ(cell.metric_stats.size(), specs.size());
    for (const RunningStats& stats : cell.metric_stats) {
      EXPECT_EQ(stats.count(), cfg.replicates);
    }
  }
  // The table grows one column per scalar (plus regret's ci95).
  const std::string header =
      result.to_csv().substr(0, result.to_csv().find('\n'));
  EXPECT_EQ(header,
            "scenario,algo,noise,engine,replicates,regret_mean,regret_ci95,"
            "convergence_round_mean,last_violation_mean,band_occupancy_mean,"
            "osc_crossing_rate_mean,osc_max_abs_deficit_mean,"
            "osc_mean_abs_deficit_mean");
}

TEST(CampaignMetrics, DefaultSelectionKeepsHistoricalColumns) {
  const auto cfg = metric_matrix({});
  const CampaignResult result = run_campaign(cfg);
  EXPECT_EQ(result.metrics, default_metric_names());
  const std::string csv = result.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "scenario,algo,noise,engine,replicates,regret_mean,regret_ci95,"
            "violations_mean,switches_per_ant_round");
  for (const CampaignCell& cell : result.cells) {
    ASSERT_EQ(cell.metric_stats.size(), 3u);
  }
}

TEST(CampaignMetrics, LookupByScalarName) {
  const CampaignResult result = run_campaign(metric_matrix({}));
  const auto specs = result.scalar_columns();
  ASSERT_EQ(specs.size(), 3u);
  for (const CampaignCell& cell : result.cells) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE(specs[i].name);
      const RunningStats& stats = result.metric(cell, specs[i].name);
      expect_stats_identical(stats, cell.metric_stats[i]);
    }
  }
  // An unselected scalar throws, naming the selected ones.
  try {
    result.metric(result.cells.front(), "convergence_round");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("convergence_round"), std::string::npos) << what;
    EXPECT_NE(what.find("regret, violations, switches_per_ant_round"),
              std::string::npos)
        << what;
  }
}

TEST(CampaignMetrics, HashFoldsResolvedSelection) {
  const auto base = metric_matrix({});
  const std::uint64_t default_hash = campaign_config_hash(base);

  // Explicit default == empty: same campaign, same hash.
  auto explicit_default = metric_matrix(default_metric_names());
  EXPECT_EQ(campaign_config_hash(explicit_default), default_hash);

  // A different selection is a different campaign.
  auto custom = metric_matrix({"regret", "convergence"});
  EXPECT_NE(campaign_config_hash(custom), default_hash);

  // Order matters (it is the column order).
  auto reordered = metric_matrix({"convergence", "regret"});
  EXPECT_NE(campaign_config_hash(reordered), campaign_config_hash(custom));

  // Unknown names are rejected at hashing (and everywhere else).
  auto bogus = metric_matrix({"no-such-metric"});
  EXPECT_THROW(campaign_config_hash(bogus), std::invalid_argument);
  EXPECT_THROW(run_campaign(bogus), std::invalid_argument);
}

TEST(CampaignMetrics, CustomSelectionShardRoundTripBitIdentical) {
  const std::string dir = make_temp_dir("roundtrip");
  auto cfg = metric_matrix({"regret", "switches", "regret-split",
                            "convergence", "oscillation"});
  const CampaignResult full = run_campaign(cfg);

  for (std::size_t i = 0; i < 3; ++i) {
    cfg.shard = {i, 3};
    write_campaign_shard(dir, cfg, run_campaign(cfg));
  }
  const MergedCampaign merged = merge_campaign_dir(dir);
  cfg.shard = {};
  EXPECT_EQ(merged.config_hash, campaign_config_hash(cfg));
  EXPECT_EQ(merged.result.metrics, full.metrics);

  ASSERT_EQ(merged.result.cells.size(), full.cells.size());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const CampaignCell& x = merged.result.cells[i];
    const CampaignCell& y = full.cells[i];
    ASSERT_EQ(x.metric_stats.size(), y.metric_stats.size());
    for (std::size_t si = 0; si < x.metric_stats.size(); ++si) {
      expect_stats_identical(x.metric_stats[si], y.metric_stats[si]);
    }
  }
  EXPECT_EQ(merged.result.to_csv(), full.to_csv());

  // Each file's identity frame records the selection.
  const JournalContents shard0 =
      read_cell_journal((fs::path(dir) / "shard-0-of-3.journal").string());
  EXPECT_EQ(shard0.identity.metrics, full.metrics);
  fs::remove_all(dir);
}

TEST(CampaignMetrics, MergeRefusesMixedMetricSelections) {
  const std::string dir = make_temp_dir("mixed");
  auto a = metric_matrix({"regret", "convergence"});
  a.shard = {0, 2};
  write_campaign_shard(dir, a, run_campaign(a));

  auto b = metric_matrix({"regret", "oscillation"});
  b.shard = {1, 2};
  write_campaign_shard(dir, b, run_campaign(b));

  // Different metric lists -> different config hashes -> refused.
  try {
    merge_campaign_dir(dir);
    ADD_FAILURE() << "merge accepted mixed metric selections";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config hash"), std::string::npos)
        << e.what();
  }

  // Files that agree on the hash but not on the selection are refused too,
  // naming the selection: b's cells relabelled as a's campaign.
  fs::remove(fs::path(dir) / "shard-1-of-2.journal");
  {
    const CampaignResult cells = run_campaign(b);
    CellJournal journal((fs::path(dir) / "shard-1-of-2.journal").string(),
                        campaign_config_hash(a), cells.metrics,
                        campaign_total_cells(b), b.replicates);
    for (const CampaignCell& cell : cells.cells) journal.append(cell);
  }
  try {
    merge_campaign_dir(dir);
    ADD_FAILURE() << "merge accepted mixed metric selections";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("metric selection"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(CampaignMetrics, TextShardDirectoryGetsVersionError) {
  for (const std::string version : {"v1", "v2"}) {
    SCOPED_TRACE(version);
    const std::string dir = make_temp_dir(version);
    {
      std::ofstream manifest(fs::path(dir) / "shard-0-of-1.manifest");
      manifest << "format antalloc-campaign-shard-" << version << "\n"
               << "config_hash 00000000deadbeef\n"
               << "shard_index 0\n"
               << "shard_count 1\n";
    }
    try {
      merge_campaign_dir(dir);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      // A version error naming both formats — NOT a checksum mismatch.
      EXPECT_NE(message.find("antalloc-campaign-shard-" + version),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("antalloc-campaign-shard-v3"), std::string::npos)
          << message;
      EXPECT_EQ(message.find("checksum"), std::string::npos) << message;
    }
    fs::remove_all(dir);
  }
}

TEST(CampaignMetrics, WriteRefusesResultFromDifferentSelection) {
  const std::string dir = make_temp_dir("foreign");
  auto ran = metric_matrix({"regret", "convergence"});
  const CampaignResult result = run_campaign(ran);
  auto other = metric_matrix({"regret", "oscillation"});
  EXPECT_THROW(write_campaign_shard(dir, other, result),
               std::invalid_argument);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace antalloc
