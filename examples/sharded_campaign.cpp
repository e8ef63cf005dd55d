// Sharded campaign, end to end in one process: run one campaign as three
// shards, persist each shard as the journal file a distributed worker would
// upload (shard-<i>-of-3.journal), merge the directory, and check the merged
// result is byte-identical to an unsharded run of the same config.
//
// This is the compile-checked worked example embedded in docs/CAMPAIGNS.md —
// keep the two in sync. In production the three shard runs happen on three
// machines (a CI matrix, a cluster); nothing in the code changes, only where
// the processes run and how the shard directories are collected.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/sharded_campaign
#include <cstdio>
#include <memory>

#include "io/campaign_io.h"
#include "noise/sigmoid.h"
#include "sim/campaign.h"

using namespace antalloc;

int main() {
  // The campaign: 3 scenario families x 2 algorithms x 1 noise = 6 cells.
  const DemandVector base({Count{900}, Count{600}, Count{300}});
  CampaignConfig cfg;
  for (const char* family : {"constant", "single-shock", "task-churn"}) {
    ScenarioSpec spec;
    spec.name = family;
    spec.initial = InitialKind::kUniform;
    cfg.scenarios.push_back(make_scenario(spec, base, 2000));
  }
  cfg.algos = {AlgoConfig{.name = "ant", .gamma = 0.05},
               AlgoConfig{.name = "trivial", .gamma = 0.05}};
  cfg.noises = {{"sigmoid",
                 [] { return std::make_unique<SigmoidFeedback>(1.0); }}};
  cfg.n_ants = 8192;
  cfg.rounds = 2000;
  cfg.seed = 11;
  cfg.replicates = 4;
  // Metric selection: the default trio plus streaming convergence time.
  // The resolved list enters the config hash, so every shard must select
  // the same metrics - and the merged table grows their columns.
  cfg.metrics.names = {"regret", "violations", "switches", "convergence"};

  // Phase 1 — each "worker" runs its shard and persists it; a re-run
  // replaces its file. Cell seeds are derived from matrix coordinates, so a
  // shard computes the same bits wherever and whenever it runs.
  for (std::size_t i = 0; i < 3; ++i) {
    cfg.shard = ShardSpec{i, 3};
    write_campaign_shard("shard-demo", cfg, run_campaign(cfg));
  }

  // Phase 2 — anyone holding the directory merges. Each file's identity
  // frame carries the campaign config hash, so mixing shards of different
  // campaigns throws, and so does a missing or duplicated cell.
  const MergedCampaign merged = merge_campaign_dir("shard-demo");
  std::printf("%s\n", merged.result.table().render().c_str());

  // The determinism contract: bit-identical to the unsharded run.
  cfg.shard = ShardSpec{};
  const CampaignResult unsharded = run_campaign(cfg);
  const bool identical = merged.result.to_csv() == unsharded.to_csv();
  std::printf("merged == unsharded: %s\n", identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
