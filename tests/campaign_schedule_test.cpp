// Work-stealing campaign scheduling: bit-identity of run_campaign across
// worker counts and against a hand-rolled sequential cell loop (the pre-
// task-graph algorithm), plus the CampaignProgress observer contract.
//
// The sequential reference deliberately re-derives the cell and replicate
// seeds from scratch — hash(seed, si, ai, ni) per cell, hash(cell_seed,
// replicate) per trial — so any change to the campaign's seed derivation or
// fold order breaks these EXPECT_EQs, not just a thread-count comparison
// against itself.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "metrics/metric.h"
#include "noise/sigmoid.h"
#include "parallel/thread_pool.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

using test_util::churn_matrix;

// The pre-work-stealing algorithm, from the public API: walk cells in flat
// order, run replicates strictly one at a time IN ORDER on the calling
// thread, fold immediately. No pool anywhere.
CampaignResult reference_sequential(const CampaignConfig& cfg) {
  const std::vector<std::string> families =
      resolve_metric_names(cfg.metrics.names);
  const std::vector<MetricScalar> specs = metric_scalar_columns(families);

  CampaignResult out;
  out.metrics = families;
  for (std::size_t si = 0; si < cfg.scenarios.size(); ++si) {
    for (std::size_t ai = 0; ai < cfg.algos.size(); ++ai) {
      for (std::size_t ni = 0; ni < cfg.noises.size(); ++ni) {
        const std::size_t flat =
            (si * cfg.algos.size() + ai) * cfg.noises.size() + ni;
        if (!shard_owns(cfg.shard, flat)) continue;
        const Scenario& scenario = cfg.scenarios[si];
        const NoiseSpec& noise = cfg.noises[ni];

        ExperimentConfig ecfg;
        ecfg.algo = cfg.algos[ai];
        ecfg.n_ants = cfg.n_ants;
        ecfg.rounds = cfg.rounds;
        ecfg.seed = rng::hash_words(cfg.seed, si, ai,
                                    cfg.pair_noise_seeds ? 0 : ni);
        ecfg.initial = scenario.initial;
        ecfg.initial_loads = scenario.initial_loads;
        ecfg.metrics = cfg.metrics;
        ecfg.metrics.names = families;
        ecfg.sampling = cfg.sampling;
        if (ecfg.metrics.warmup == 0) ecfg.metrics.warmup = cfg.rounds / 2;

        CampaignCell cell;
        cell.flat_index = flat;
        cell.scenario = scenario.name;
        cell.algo = cfg.algos[ai].name;
        cell.noise = noise.name;
        {
          const auto probe = noise.make();
          cell.engine = resolve_engine(cfg.engine, ecfg.algo, *probe);
        }
        ecfg.engine = cell.engine;

        cell.metric_stats.assign(specs.size(), RunningStats{});
        for (std::int64_t rep = 0; rep < cfg.replicates; ++rep) {
          const SimResult r =
              run_replicate(ecfg, noise.make, scenario.schedule, rep);
          for (std::size_t k = 0; k < specs.size(); ++k) {
            cell.metric_stats[k].add(r.metric(specs[k].name));
          }
        }
        out.cells.push_back(std::move(cell));
      }
    }
  }
  return out;
}

// Every accumulator field, exactly — not within tolerance. Replicate order
// inside the fold is part of the contract: Welford updates do not commute
// bit-wise, so a fold in completion order would fail the m2/mean EXPECT_EQs.
void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CampaignCell& ca = a.cells[i];
    const CampaignCell& cb = b.cells[i];
    EXPECT_EQ(ca.flat_index, cb.flat_index);
    EXPECT_EQ(ca.scenario, cb.scenario);
    EXPECT_EQ(ca.algo, cb.algo);
    EXPECT_EQ(ca.noise, cb.noise);
    EXPECT_EQ(ca.engine, cb.engine);
    ASSERT_EQ(ca.metric_stats.size(), cb.metric_stats.size());
    for (std::size_t k = 0; k < ca.metric_stats.size(); ++k) {
      const RunningStats::State sa = ca.metric_stats[k].state();
      const RunningStats::State sb = cb.metric_stats[k].state();
      EXPECT_EQ(sa.count, sb.count) << "cell " << i << " scalar " << k;
      EXPECT_EQ(sa.mean, sb.mean) << "cell " << i << " scalar " << k;
      EXPECT_EQ(sa.m2, sb.m2) << "cell " << i << " scalar " << k;
      EXPECT_EQ(sa.min, sb.min) << "cell " << i << " scalar " << k;
      EXPECT_EQ(sa.max, sb.max) << "cell " << i << " scalar " << k;
    }
  }
}

TEST(CampaignSchedule, BitIdenticalAcrossWorkerCounts) {
  auto cfg = churn_matrix();
  ThreadPool one(1);
  ThreadPool four(4);
  ThreadPool eight(8);

  cfg.pool = &one;
  const auto r1 = run_campaign(cfg);
  cfg.pool = &four;
  const auto r4 = run_campaign(cfg);
  cfg.pool = &eight;
  const auto r8 = run_campaign(cfg);

  expect_bit_identical(r1, r4);
  expect_bit_identical(r1, r8);
  // Rendered artifacts too — the CSV a shard would write.
  EXPECT_EQ(r1.to_csv(), r4.to_csv());
  EXPECT_EQ(r1.to_csv(), r8.to_csv());
}

TEST(CampaignSchedule, MatchesSequentialReferenceLoop) {
  auto cfg = churn_matrix();
  const auto reference = reference_sequential(cfg);
  ThreadPool eight(8);
  cfg.pool = &eight;
  const auto stolen = run_campaign(cfg);
  expect_bit_identical(reference, stolen);
  EXPECT_EQ(reference.to_csv(), stolen.to_csv());
}

TEST(CampaignSchedule, ShardedCellsMatchSequentialReference) {
  auto cfg = churn_matrix();
  cfg.shard = {1, 3};
  const auto reference = reference_sequential(cfg);
  ThreadPool four(4);
  cfg.pool = &four;
  const auto stolen = run_campaign(cfg);
  expect_bit_identical(reference, stolen);
}

// The observer contract: one on_cell_done per owned cell, cells_done
// monotone 1..total, totals and final replicate counts right, and the set
// of reported flat indices exactly the owned set.
class RecordingProgress : public CampaignProgress {
 public:
  void on_cell_done(const Update& u) override {
    std::lock_guard lock(mutex_);
    updates.push_back(u);
  }
  std::mutex mutex_;
  std::vector<Update> updates;
};

TEST(CampaignSchedule, ProgressReportsEveryCellOnce) {
  auto cfg = churn_matrix();
  RecordingProgress progress;
  cfg.progress = &progress;
  ThreadPool four(4);
  cfg.pool = &four;
  const auto result = run_campaign(cfg);

  ASSERT_EQ(progress.updates.size(), result.cells.size());
  std::set<std::size_t> reported;
  for (std::size_t i = 0; i < progress.updates.size(); ++i) {
    const auto& u = progress.updates[i];
    EXPECT_EQ(u.cells_done, i + 1);  // monotone, serialized
    EXPECT_EQ(u.cells_total, result.cells.size());
    reported.insert(u.flat_index);
  }
  std::set<std::size_t> owned;
  for (const auto& cell : result.cells) owned.insert(cell.flat_index);
  EXPECT_EQ(reported, owned);
  EXPECT_EQ(progress.updates.back().replicates_done,
            static_cast<std::int64_t>(result.cells.size()) * cfg.replicates);
  // Attaching the observer changed nothing.
  cfg.progress = nullptr;
  const auto plain = run_campaign(cfg);
  EXPECT_EQ(result.to_csv(), plain.to_csv());
}

}  // namespace
}  // namespace antalloc
