// Shared campaign-config builders for the test suite. campaign_test,
// campaign_schedule_test, campaign_metrics_test and the net-layer tests all
// need a small scenario×algo matrix; one parameterized builder here replaces
// the near-identical copies each file used to carry. The named wrappers
// (small_matrix / churn_matrix / metric_matrix) reproduce the historical
// per-file configs EXACTLY — same demands, rounds, seeds, replicates — so
// every number those tests pin is unchanged.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "noise/sigmoid.h"
#include "sim/campaign.h"
#include "stats/summary.h"

namespace antalloc::test_util {

struct MatrixOptions {
  std::vector<std::string> families = {"constant", "single-shock"};
  std::vector<std::string> algos = {"ant", "trivial"};  // all at gamma 0.05
  std::vector<Count> demands = {120, 80};
  Round rounds = 400;
  Count n_ants = 800;
  std::uint64_t seed = 99;
  std::int64_t replicates = 3;
  double lambda = 1.0;  // sigmoid sharpness of the single noise entry
  std::vector<std::string> metrics = {};
};

// families × {ant, trivial} × one sigmoid noise, uniform starts.
inline CampaignConfig test_matrix(const MatrixOptions& o = {}) {
  const DemandVector base(o.demands);
  CampaignConfig cfg;
  for (const std::string& family : o.families) {
    ScenarioSpec spec;
    spec.name = family;
    spec.initial = InitialKind::kUniform;
    cfg.scenarios.push_back(make_scenario(spec, base, o.rounds));
  }
  for (const std::string& algo : o.algos) {
    cfg.algos.push_back(AlgoConfig{.name = algo, .gamma = 0.05});
  }
  const double lambda = o.lambda;
  cfg.noises = {{"sigmoid",
                 [lambda] { return std::make_unique<SigmoidFeedback>(lambda); }}};
  cfg.n_ants = o.n_ants;
  cfg.rounds = o.rounds;
  cfg.seed = o.seed;
  cfg.replicates = o.replicates;
  cfg.metrics.names = o.metrics;
  return cfg;
}

// campaign_test's 2×2: constant + single-shock, 400 rounds, 3 replicates.
inline CampaignConfig small_matrix() { return test_matrix(); }

// campaign_schedule_test's churn family matrix: uneven per-cell cost (the
// lifecycle scenarios re-plan at every change point) is exactly what work
// stealing reshuffles, so identical numbers mean scheduling is result-free.
inline CampaignConfig churn_matrix() {
  MatrixOptions o;
  o.families = {"task-churn", "constant"};
  o.demands = {Count{120}, Count{80}, Count{60}};
  o.rounds = 300;
  o.n_ants = 600;
  o.seed = 42;
  o.replicates = 4;
  return test_matrix(o);
}

// campaign_metrics_test's matrix with an explicit metric selection.
inline CampaignConfig metric_matrix(std::vector<std::string> metric_selection) {
  MatrixOptions o;
  o.demands = {Count{60}, Count{40}};
  o.rounds = 200;
  o.n_ants = 400;
  o.seed = 13;
  o.replicates = 2;
  o.metrics = std::move(metric_selection);
  return test_matrix(o);
}

// campaign_shard_test's 2×3×1 = 6 cells: even under 3 shards, ragged under
// 5 (6 % 5 = 1).
inline CampaignConfig shard_matrix() {
  MatrixOptions o;
  o.algos = {"ant", "trivial", "sharp-threshold"};
  o.demands = {Count{60}, Count{40}};
  o.rounds = 200;
  o.n_ants = 400;
  o.seed = 7;
  o.replicates = 2;
  return test_matrix(o);
}

// A fresh (pre-wiped) per-test scratch directory under the system temp root.
// The name carries the running test's suite and name plus the process id, so
// test binaries run in parallel (ctest -j) never share, and so never wipe,
// each other's directories even when they pass the same tag. Every directory
// is removed when the process exits, so per-process names do not pile up.
inline std::string make_temp_dir(const std::string& tag) {
  struct RemoveAtExit {
    std::vector<std::filesystem::path> dirs;
    ~RemoveAtExit() {
      std::error_code ignored;
      for (const auto& d : dirs) std::filesystem::remove_all(d, ignored);
    }
  };
  static RemoveAtExit created;
  std::string owner = "antalloc_test_";
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    owner += std::string(info->test_suite_name()) + "." + info->name() + "_";
  }
  owner += std::to_string(::getpid()) + "_" + tag;
  for (char& c : owner) {
    if (c == '/') c = '_';  // parameterized suites/names contain '/'
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / owner;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  created.dirs.push_back(dir);
  return dir.string();
}

// Bit-level equality of two Welford accumulators — the "no number changed"
// assertion the campaign determinism and feed reassembly tests share.
inline void expect_stats_identical(const RunningStats& a,
                                   const RunningStats& b) {
  const auto sa = a.state();
  const auto sb = b.state();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.mean, sb.mean);
  EXPECT_EQ(sa.m2, sb.m2);
  EXPECT_EQ(sa.min, sb.min);
  EXPECT_EQ(sa.max, sb.max);
}

}  // namespace antalloc::test_util
