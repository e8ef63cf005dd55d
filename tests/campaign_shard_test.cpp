// Campaign sharding: the partition function's disjoint-union contract, the
// load-bearing bit-identity of merged shards vs the unsharded run (in memory
// and through the journal-file disk round trip), and the merge's refusal of
// mismatched, incomplete, duplicated, torn or corrupted shard sets with an
// error that names the file or the cells.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

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
  IncrementalMerger merger(campaign_total_cells(cfg),
                           resolve_metric_names(cfg.metrics.names),
                           IncrementalMerger::Duplicates::kReject);
  for (std::size_t i = 0; i < count; ++i) {
    cfg.shard = {i, count};
    for (CampaignCell& cell : run_campaign(cfg).cells) {
      merger.add(std::move(cell));
    }
  }
  return merger.take();
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
  cfg.shard = {0, 3};
  const CampaignResult shard0 = run_campaign(cfg);
  IncrementalMerger merger(campaign_total_cells(cfg),
                           resolve_metric_names(cfg.metrics.names),
                           IncrementalMerger::Duplicates::kReject);
  for (const CampaignCell& cell : shard0.cells) merger.add(cell);
  // Missing shards 1 and 2.
  EXPECT_FALSE(merger.complete());
  EXPECT_THROW(merger.take(), std::invalid_argument);
  // Shard 0 twice.
  EXPECT_THROW(merger.add(shard0.cells[0]), std::invalid_argument);
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
  const CampaignResult full = run_campaign(cfg);

  for (std::size_t i = 0; i < 3; ++i) {
    cfg.shard = {i, 3};
    write_campaign_shard(dir, cfg, run_campaign(cfg));
  }

  const MergedCampaign merged = merge_campaign_dir(dir);
  EXPECT_EQ(merged.files, 3u);
  EXPECT_EQ(merged.total_cells, 6u);
  cfg.shard = {};
  EXPECT_EQ(merged.config_hash, campaign_config_hash(cfg));
  expect_bit_identical(merged.result, full, /*compare_results=*/false);
  fs::remove_all(dir);
}

TEST(CampaignShardIo, JournalDescribesTheShard) {
  const std::string dir = make_temp_dir("identity");
  auto cfg = shard_matrix();
  cfg.shard = {1, 5};  // ragged: owns flat index 1 only
  const std::string path = write_campaign_shard(dir, cfg, run_campaign(cfg));
  EXPECT_EQ(fs::path(path).filename(), "shard-1-of-5.journal");
  const JournalContents file = read_cell_journal(path);
  EXPECT_EQ(file.identity.config_hash, campaign_config_hash(cfg));
  EXPECT_EQ(file.identity.cells_total, 6u);
  EXPECT_EQ(file.identity.replicates, cfg.replicates);
  EXPECT_EQ(file.identity.metrics, resolve_metric_names({}));
  ASSERT_EQ(file.cells.size(), 1u);  // 1 + 5 = 6 is past the end
  EXPECT_EQ(file.cells[0].flat_index, 1u);
  EXPECT_EQ(file.torn_bytes, 0u);
  EXPECT_EQ(file.whole_bytes, fs::file_size(path));
  fs::remove_all(dir);
}

TEST(CampaignShardIo, RerunReplacesTheShardFile) {
  const std::string dir = make_temp_dir("rerun");
  auto cfg = shard_matrix();
  cfg.shard = {0, 2};
  const CampaignResult shard0 = run_campaign(cfg);
  const std::string path = write_campaign_shard(dir, cfg, shard0);
  const std::string first = test_util::read_file_bytes(path);
  EXPECT_EQ(write_campaign_shard(dir, cfg, shard0), path);
  EXPECT_EQ(test_util::read_file_bytes(path), first);
  cfg.shard = {1, 2};
  write_campaign_shard(dir, cfg, run_campaign(cfg));
  EXPECT_EQ(merge_campaign_dir(dir).result.cells.size(), 6u);
  fs::remove_all(dir);
}

// A fleet coordinator appends cells in completion order; a copy of its
// journal merges like a set of shard files.
TEST(CampaignShardIo, CoordinatorJournalMergesToTheSameBytes) {
  const std::string dir = make_temp_dir("coordinator");
  const auto cfg = shard_matrix();
  const CampaignResult full = run_campaign(cfg);
  {
    CellJournal journal((fs::path(dir) / "fleet.journal").string(),
                        campaign_config_hash(cfg), full.metrics,
                        full.cells.size(), cfg.replicates);
    for (const std::size_t flat : {4u, 0u, 5u, 2u, 1u, 3u}) {
      journal.append(full.cells[flat]);
    }
  }
  const MergedCampaign merged = merge_campaign_dir(dir);
  EXPECT_EQ(merged.files, 1u);
  EXPECT_EQ(merged.result.to_csv(), full.to_csv());
  fs::remove_all(dir);
}

// Asserts merge_campaign_dir refuses `dir` with a std::runtime_error whose
// message holds every one of `parts` (not a std::bad_alloc from sizing by a
// hostile value, and not a crash).
void expect_merge_refused_naming(const std::string& dir,
                                 const std::vector<std::string>& parts) {
  try {
    merge_campaign_dir(dir);
    ADD_FAILURE() << "merge accepted " << dir;
  } catch (const std::runtime_error& e) {
    for (const std::string& part : parts) {
      EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
          << "'" << part << "' missing from: " << e.what();
    }
  }
}

// Writes shards 0 and 1 of 2 into `dir` and returns their paths.
std::vector<std::string> write_two_shards(const std::string& dir) {
  auto cfg = shard_matrix();
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < 2; ++i) {
    cfg.shard = {i, 2};
    paths.push_back(write_campaign_shard(dir, cfg, run_campaign(cfg)));
  }
  EXPECT_NO_THROW(merge_campaign_dir(dir));
  return paths;
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

  expect_merge_refused_naming(dir, {"shard-1-of-2.journal", "config hash"});
  fs::remove_all(dir);
}

TEST(CampaignShardIo, MissingFileNamesTheMissingCells) {
  const std::string dir = make_temp_dir("missing");
  const std::vector<std::string> paths = write_two_shards(dir);
  fs::remove(paths[1]);  // shard 1 of 2 owns the odd cells
  expect_merge_refused_naming(dir, {"3 of 6 cells", "missing cells 1, 3, 5"});
  fs::remove_all(dir);
}

TEST(CampaignShardIo, CellDuplicatedAcrossFilesIsNamed) {
  const std::string dir = make_temp_dir("duplicate");
  const std::vector<std::string> paths = write_two_shards(dir);
  fs::copy_file(paths[0], fs::path(dir) / "copy.journal");
  expect_merge_refused_naming(
      dir, {"duplicated", "0 (copy.journal, shard-0-of-2.journal)"});
  fs::remove_all(dir);
}

TEST(CampaignShardIo, FlippedByteIsRefusedNamingTheFile) {
  const std::string dir = make_temp_dir("flip");
  const std::vector<std::string> paths = write_two_shards(dir);
  std::string bytes = test_util::read_file_bytes(paths[0]);
  bytes[bytes.size() - 20] ^= 0x10;  // inside the last cell frame
  test_util::write_file_bytes(paths[0], bytes);
  EXPECT_THROW(read_cell_journal(paths[0]), ProtocolChecksumError);
  expect_merge_refused_naming(dir, {paths[0], "checksum"});
  fs::remove_all(dir);
}

// The merge reads; it never cuts a torn tail the way a resuming coordinator
// does.
TEST(CampaignShardIo, TornTailIsRefusedAndLeftUntouched) {
  const std::string dir = make_temp_dir("torn");
  const std::vector<std::string> paths = write_two_shards(dir);
  const std::string bytes = test_util::read_file_bytes(paths[1]);
  const std::string torn = bytes.substr(0, bytes.size() - 5);
  test_util::write_file_bytes(paths[1], torn);
  expect_merge_refused_naming(dir, {paths[1], "torn"});
  EXPECT_EQ(test_util::read_file_bytes(paths[1]), torn);
  fs::remove_all(dir);
}

// Rewrites every journal of `dir` with its identity passed through `edit`
// (cells unchanged), as a well-formed, checksum-valid file.
template <typename Edit>
void rewrite_identity(const std::string& dir, Edit edit) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    JournalContents file = read_cell_journal(path);
    edit(file.identity);
    fs::remove(path);
    CellJournal journal(path, file.identity.config_hash,
                        file.identity.metrics, file.identity.cells_total,
                        file.identity.replicates);
    for (const CampaignCell& cell : file.cells) journal.append(cell);
  }
}

TEST(CampaignShardIo, HostileCellsTotalRefusedBeforeAllocating) {
  const std::string dir = make_temp_dir("hostile_total");
  write_two_shards(dir);
  rewrite_identity(dir, [](Snapshot& id) {
    id.cells_total = std::uint64_t{1} << 62;
  });
  expect_merge_refused_naming(
      dir, {"6 of 4611686018427387904 cells",
            "missing cells 6..4611686018427387903"});
  fs::remove_all(dir);
}

TEST(CampaignShardIo, DisagreeingShapeIsRefusedNamingBothFiles) {
  const std::string dir = make_temp_dir("shape");
  const std::vector<std::string> paths = write_two_shards(dir);
  fs::remove(paths[0]);
  rewrite_identity(dir, [](Snapshot& id) { ++id.replicates; });
  auto cfg = shard_matrix();
  cfg.shard = {0, 2};
  write_campaign_shard(dir, cfg, run_campaign(cfg));
  expect_merge_refused_naming(dir, {paths[1], paths[0], "replicates"});
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
