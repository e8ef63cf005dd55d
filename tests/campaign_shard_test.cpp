// Campaign sharding: the partition function's disjoint-union contract, the
// load-bearing bit-identity of merged shards vs the unsharded run (in memory
// and through the CSV/manifest disk round trip), and the merge's refusal of
// mismatched, incomplete or corrupted shard sets.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

#include "io/campaign_io.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

namespace fs = std::filesystem;

using test_util::expect_stats_identical;
using test_util::make_temp_dir;
using test_util::shard_matrix;

CampaignResult run_all_shards_merged(CampaignConfig cfg, std::size_t count) {
  std::vector<CampaignResult> shards;
  for (std::size_t i = 0; i < count; ++i) {
    cfg.shard = {i, count};
    shards.push_back(run_campaign(cfg));
  }
  return merge_campaign_shards(std::move(shards), campaign_total_cells(cfg));
}

// Every selected scalar of two cells, every RunningStats::State word.
void expect_metric_stats_identical(const CampaignCell& x,
                                   const CampaignCell& y) {
  ASSERT_EQ(x.metric_stats.size(), y.metric_stats.size());
  for (std::size_t si = 0; si < x.metric_stats.size(); ++si) {
    SCOPED_TRACE("scalar " + std::to_string(si));
    expect_stats_identical(x.metric_stats[si], y.metric_stats[si]);
  }
}

// Bit-identical over everything the disk format round-trips (the whole
// CampaignResult minus per-replicate traces, which are in-memory only).
void expect_bit_identical(const CampaignResult& a, const CampaignResult& b,
                          bool compare_results) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const CampaignCell& x = a.cells[i];
    const CampaignCell& y = b.cells[i];
    EXPECT_EQ(x.flat_index, y.flat_index);
    EXPECT_EQ(x.scenario, y.scenario);
    EXPECT_EQ(x.algo, y.algo);
    EXPECT_EQ(x.noise, y.noise);
    EXPECT_EQ(x.engine, y.engine);
    expect_metric_stats_identical(x, y);
    if (compare_results) {
      ASSERT_EQ(x.results.size(), y.results.size());
      for (std::size_t r = 0; r < x.results.size(); ++r) {
        const SimResult& u = x.results[r];
        const SimResult& v = y.results[r];
        EXPECT_EQ(u.rounds, v.rounds);
        EXPECT_EQ(u.n_ants, v.n_ants);
        EXPECT_EQ(u.total_regret, v.total_regret);
        EXPECT_EQ(u.regret_plus, v.regret_plus);
        EXPECT_EQ(u.regret_near, v.regret_near);
        EXPECT_EQ(u.regret_minus, v.regret_minus);
        EXPECT_EQ(u.post_warmup_rounds, v.post_warmup_rounds);
        EXPECT_EQ(u.post_warmup_regret, v.post_warmup_regret);
        EXPECT_EQ(u.violation_rounds, v.violation_rounds);
        EXPECT_EQ(u.switches, v.switches);
        EXPECT_EQ(u.final_loads, v.final_loads);
      }
    }
  }
  // And the rendered artifact is the same bytes.
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(ShardPartition, UnionIsDisjointAndComplete) {
  // Ragged splits included: every (total, count) partitions {0..total-1}.
  for (const std::size_t total : {1u, 5u, 6u, 7u, 12u, 13u}) {
    for (const std::size_t count : {1u, 2u, 3u, 5u, 8u}) {
      SCOPED_TRACE(std::to_string(total) + " cells, " +
                   std::to_string(count) + " shards");
      std::set<std::size_t> seen;
      std::size_t claimed = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const ShardSpec shard{i, count};
        for (const std::size_t flat : shard_cell_indices(total, shard)) {
          EXPECT_TRUE(shard_owns(shard, flat));
          EXPECT_TRUE(seen.insert(flat).second) << "duplicate " << flat;
          ++claimed;
        }
      }
      EXPECT_EQ(claimed, total);
      if (total > 0) {
        EXPECT_EQ(*seen.begin(), 0u);
        EXPECT_EQ(*seen.rbegin(), total - 1);
      }
    }
  }
}

TEST(ShardPartition, RejectsInvalidSpec) {
  EXPECT_THROW(shard_owns({0, 0}, 0), std::invalid_argument);
  EXPECT_THROW(shard_owns({3, 3}, 0), std::invalid_argument);
  EXPECT_THROW(shard_cell_indices(10, {5, 2}), std::invalid_argument);
  auto cfg = shard_matrix();
  cfg.shard = {2, 2};
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
}

TEST(CampaignShard, ShardRunsOnlyItsCells) {
  auto cfg = shard_matrix();
  const CampaignResult full = run_campaign(cfg);
  ASSERT_EQ(full.cells.size(), 6u);
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    EXPECT_EQ(full.cells[i].flat_index, i);  // unsharded = identity order
  }

  cfg.shard = {1, 3};
  const CampaignResult shard = run_campaign(cfg);
  ASSERT_EQ(shard.cells.size(), 2u);
  EXPECT_EQ(shard.cells[0].flat_index, 1u);
  EXPECT_EQ(shard.cells[1].flat_index, 4u);
  // The shard's cells are the unsharded cells, bit for bit.
  for (const CampaignCell& cell : shard.cells) {
    const CampaignCell& ref = full.cells[cell.flat_index];
    EXPECT_EQ(cell.scenario, ref.scenario);
    EXPECT_EQ(cell.algo, ref.algo);
    expect_metric_stats_identical(cell, ref);
  }
}

TEST(CampaignShard, MergedShardsBitIdenticalToUnsharded) {
  auto cfg = shard_matrix();
  cfg.keep_results = true;
  const CampaignResult full = run_campaign(cfg);
  // N = 1 (degenerate), 3 (even: 6 % 3 = 0) and 5 (ragged: 6 % 5 = 1, so
  // shard 0 owns two cells and shards 1-4 own one each).
  for (const std::size_t count : {1u, 3u, 5u}) {
    SCOPED_TRACE(std::to_string(count) + " shards");
    const CampaignResult merged = run_all_shards_merged(cfg, count);
    expect_bit_identical(merged, full, /*compare_results=*/true);
  }
}

TEST(CampaignShard, MergeRejectsIncompleteOrDuplicateCells) {
  auto cfg = shard_matrix();
  std::vector<CampaignResult> shards;
  cfg.shard = {0, 3};
  shards.push_back(run_campaign(cfg));
  // Missing shards 1 and 2.
  EXPECT_THROW(merge_campaign_shards(std::move(shards),
                                     campaign_total_cells(cfg)),
               std::invalid_argument);

  shards.clear();
  shards.push_back(run_campaign(cfg));
  shards.push_back(run_campaign(cfg));  // shard 0 twice
  EXPECT_THROW(merge_campaign_shards(std::move(shards),
                                     campaign_total_cells(cfg)),
               std::invalid_argument);
}

TEST(ConfigHash, SensitiveToResultsAffectingFieldsOnly) {
  const auto cfg = shard_matrix();
  const std::uint64_t base = campaign_config_hash(cfg);

  auto seed = cfg;
  seed.seed = 8;
  EXPECT_NE(campaign_config_hash(seed), base);

  auto rounds = cfg;
  rounds.rounds = 201;
  EXPECT_NE(campaign_config_hash(rounds), base);

  auto gamma = cfg;
  gamma.algos[0].gamma = 0.06;
  EXPECT_NE(campaign_config_hash(gamma), base);

  auto scen = cfg;
  scen.scenarios.pop_back();
  EXPECT_NE(campaign_config_hash(scen), base);

  auto noise = cfg;
  noise.noises[0].name = "sigmoid2";
  EXPECT_NE(campaign_config_hash(noise), base);

  auto paired = cfg;
  paired.pair_noise_seeds = true;
  EXPECT_NE(campaign_config_hash(paired), base);

  // The shard spec and thread pool must NOT enter the hash: every shard of
  // one campaign carries the same hash, which is what the merge checks.
  auto sharded = cfg;
  sharded.shard = {2, 5};
  EXPECT_EQ(campaign_config_hash(sharded), base);
}

TEST(CampaignShardIo, DiskRoundTripBitIdentical) {
  const std::string dir = make_temp_dir("roundtrip");
  auto cfg = shard_matrix();
  cfg.keep_results = true;
  const CampaignResult full = run_campaign(cfg);

  for (std::size_t i = 0; i < 3; ++i) {
    cfg.shard = {i, 3};
    write_campaign_shard(dir, cfg, run_campaign(cfg));
  }

  const MergedCampaign merged = merge_campaign_dir(dir);
  EXPECT_EQ(merged.shard_count, 3u);
  EXPECT_EQ(merged.total_cells, 6u);
  cfg.shard = {};
  EXPECT_EQ(merged.config_hash, campaign_config_hash(cfg));
  expect_bit_identical(merged.result, full, /*compare_results=*/true);
  fs::remove_all(dir);
}

TEST(CampaignShardIo, ManifestDescribesTheShard) {
  const std::string dir = make_temp_dir("manifest");
  auto cfg = shard_matrix();
  cfg.shard = {1, 5};  // ragged: owns flat index 1 only
  const std::string path = write_campaign_shard(dir, cfg, run_campaign(cfg));
  const ShardManifest m = read_shard_manifest(path);
  EXPECT_EQ(m.shard_index, 1u);
  EXPECT_EQ(m.shard_count, 5u);
  EXPECT_EQ(m.total_cells, 6u);
  EXPECT_EQ(m.shard_cells, 1u);  // flat index 1 only (1 + 5 = 6 is past the end)
  fs::remove_all(dir);
}

TEST(CampaignShardIo, RejectsShardFromDifferentConfig) {
  const std::string dir = make_temp_dir("mismatch");
  auto cfg = shard_matrix();
  cfg.shard = {0, 2};
  write_campaign_shard(dir, cfg, run_campaign(cfg));

  auto other = shard_matrix();
  other.seed = 1234;  // different campaign
  other.shard = {1, 2};
  write_campaign_shard(dir, other, run_campaign(other));

  EXPECT_THROW(merge_campaign_dir(dir), std::runtime_error);
  fs::remove_all(dir);
}

TEST(CampaignShardIo, RejectsMissingShardAndCorruptedRows) {
  const std::string dir = make_temp_dir("missing");
  auto cfg = shard_matrix();
  cfg.shard = {0, 2};
  const std::string manifest_path =
      write_campaign_shard(dir, cfg, run_campaign(cfg));
  // Shard 1 of 2 was never produced.
  EXPECT_THROW(merge_campaign_dir(dir), std::runtime_error);

  cfg.shard = {1, 2};
  write_campaign_shard(dir, cfg, run_campaign(cfg));
  EXPECT_NO_THROW(merge_campaign_dir(dir));

  // Corrupt one data file: the checksum in the manifest must catch it.
  const ShardManifest m = read_shard_manifest(manifest_path);
  std::ofstream tamper(fs::path(dir) / m.rows_file, std::ios::app);
  tamper << "tampered\n";
  tamper.close();
  EXPECT_THROW(merge_campaign_dir(dir), std::runtime_error);
  fs::remove_all(dir);
}

// Rewrites the value of one "key value" line in every manifest of `dir`, so
// the shard set stays self-consistent on every other field.
void set_manifest_key(const std::string& dir, const std::string& key,
                      const std::string& value) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".manifest") continue;
    std::ifstream in(entry.path());
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
      if (line.rfind(key + " ", 0) == 0) line = key + " " + value;
      out += line + "\n";
    }
    in.close();
    std::ofstream(entry.path(), std::ios::trunc) << out;
  }
}

// Asserts merge_campaign_dir refuses `dir` with a std::runtime_error whose
// message names `field` (not a std::bad_alloc from sizing by a hostile
// value).
void expect_merge_refused_naming(const std::string& dir,
                                 const std::string& field) {
  try {
    merge_campaign_dir(dir);
    ADD_FAILURE() << "merge accepted a manifest with a hostile " << field;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

void write_two_shards(const std::string& dir) {
  auto cfg = shard_matrix();
  for (std::size_t i = 0; i < 2; ++i) {
    cfg.shard = {i, 2};
    write_campaign_shard(dir, cfg, run_campaign(cfg));
  }
  ASSERT_NO_THROW(merge_campaign_dir(dir));
}

TEST(CampaignShardIo, HostileShardCountRefusedBeforeAllocating) {
  const std::string dir = make_temp_dir("hostile_count");
  write_two_shards(dir);
  set_manifest_key(dir, "shard_count", "4611686018427387904");
  expect_merge_refused_naming(dir, "shard_count");
  fs::remove_all(dir);
}

TEST(CampaignShardIo, HostileTotalCellsRefusedBeforeAllocating) {
  const std::string dir = make_temp_dir("hostile_total");
  write_two_shards(dir);
  set_manifest_key(dir, "total_cells", "4611686018427387904");
  expect_merge_refused_naming(dir, "total_cells");
  fs::remove_all(dir);
}

TEST(CampaignShardIo, WriteRefusesForeignResult) {
  const std::string dir = make_temp_dir("foreign");
  auto cfg = shard_matrix();
  cfg.shard = {0, 3};
  const CampaignResult shard0 = run_campaign(cfg);
  cfg.shard = {1, 3};
  // Result from shard 0 presented as shard 1: flat indices do not match.
  EXPECT_THROW(write_campaign_shard(dir, cfg, shard0),
               std::invalid_argument);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace antalloc
