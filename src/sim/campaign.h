// Campaign runner: scenario × algorithm × noise matrices through the
// replicated experiment façade, producing tidy Table/CSV results.
//
// Every bench and example used to hand-roll its own double loop over
// scenarios and algorithms; a campaign is that loop as a subsystem. Fill a
// CampaignConfig (lists of scenarios from the scenario registry, AlgoConfigs
// from the algorithm registry, named noise factories, plus the shared colony
// shape), call run_campaign, and read back one CampaignCell per matrix entry
// with replicate statistics and (optionally) the full SimResults.
//
// Scheduling: run_campaign flattens the shard's (cell × replicate) space
// into one task graph — every replicate of every owned cell is an
// independent stealable task on the work-stealing executor
// (parallel/task_graph.h). There is no per-cell barrier: a cell's
// statistics fold the moment its own last replicate lands (a per-cell
// atomic countdown), while other cells' replicates keep running.
//
// Determinism: the cell seed is hash(seed, scenario_index, algo_index,
// noise_index) — matrix coordinates, so reordering an axis reseeds the
// affected cells — and the per-replicate seeds derive from it by index
// (run_replicate), so a campaign's numbers are identical for any thread
// count and any steal schedule: every task writes into its own pre-sized
// slot and folds happen in replicate order regardless of completion order.
// campaign_schedule_test pins bit-identity across {1, 4, 8}-worker pools.
//
// Sharding rides on the same property: because every cell's seed comes from
// its matrix coordinate and nothing else, a shard (ShardSpec on the config)
// can compute its slice of the matrix on any machine and the cells come out
// bit-identical to an unsharded run. IncrementalMerger reassembles the full
// CampaignResult from shard cells; the disk form (one journal of CellResult
// frames per shard, stamped with campaign_config_hash) lives in
// io/campaign_io.h, and docs/CAMPAIGNS.md is the user guide for the whole
// workflow.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "algo/registry.h"
#include "io/table.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "stats/summary.h"

namespace antalloc {

// A named noise-model factory: the third axis of the matrix (e.g. one entry
// per correlation rho, or per grey-zone adversary).
struct NoiseSpec {
  std::string name;
  ModelFactory make;
};

// Which slice of the matrix this process computes: shard `index` of `count`
// owns every cell whose flat (scenario-major) index is ≡ index (mod count).
// Round-robin by coordinate, so ragged matrices (cells % count != 0) spread
// evenly and ownership never depends on which other shards exist or run.
// The default {0, 1} is the whole matrix.
//
// Alternatively, `cells` non-empty switches to EXPLICIT ownership: the shard
// owns exactly those flat indices (strictly ascending) and index/count are
// ignored. This is the lease-driven path (src/orch/): a coordinator hands a
// worker an arbitrary contiguous range — or any set — of cells, which no
// (index mod count) pattern can express. Like index/count, the explicit list
// stays OUT of campaign_config_hash: how the matrix is cut must never change
// a number.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;
  std::vector<std::size_t> cells;
};

struct CampaignCell;

// Streaming campaign progress observer — the scheduling-side sibling of the
// PR 5 metric observers. run_campaign invokes on_cell_done once per owned
// cell, at the moment the cell's LAST replicate lands and its statistics
// fold (cells finish in scheduling order, not flat order, under work
// stealing). Calls are serialized by the campaign (never concurrent), but
// arrive on whichever executor thread folded the cell — keep handlers cheap
// and do not call back into the campaign from them. Purely observational:
// attaching one changes no number, so it is excluded from
// campaign_config_hash like the shard spec and pool.
class CampaignProgress {
 public:
  struct Update {
    std::size_t flat_index = 0;       // the cell that just folded
    std::size_t cells_done = 0;       // owned cells folded so far (monotone)
    std::size_t cells_total = 0;      // owned cells in this shard
    std::size_t cells_in_flight = 0;  // >=1 replicate started, not yet folded
    std::int64_t replicates_done = 0; // replicates finished across all cells
    std::uint64_t steals = 0;         // executor steals since campaign start
    // The cell that just folded, statistics final.
    // Valid only for the duration of the callback (it points into the
    // result under construction) — copy what you need. Lets a streaming
    // consumer (the daemon's live metric feed, net/feed.h) forward folded
    // numbers without waiting for run_campaign to return.
    const CampaignCell* cell = nullptr;
  };
  virtual ~CampaignProgress() = default;
  virtual void on_cell_done(const Update& update) = 0;
};

struct CampaignConfig {
  std::vector<Scenario> scenarios;  // from the scenario registry (or bespoke)
  std::vector<AlgoConfig> algos;
  std::vector<NoiseSpec> noises;    // at least one entry
  Engine engine = Engine::kAuto;    // resolved per cell (algo × noise)
  Count n_ants = 1 << 14;
  Round rounds = 10'000;
  std::uint64_t seed = 1;
  std::int64_t replicates = 1;
  // Agent-engine sampling mode for every cell that resolves to the agent
  // engine (the aggregate engine ignores it). Campaigns default to the
  // batched fast path; the engine falls back to per-ant per cell where
  // batching is unsound (non-i.i.d. noise) or the algorithm offers no
  // batched runner. Enters campaign_config_hash: the two modes draw
  // different (equivalent-in-law) streams, so their numbers differ
  // bit-wise and shards must not mix them.
  SamplingMode sampling = SamplingMode::kBatched;
  // metrics.gamma is the band gamma of every cell. Left alone it is the
  // recorder default, a fixed 0.01 for every algorithm; set it <= 0 to band
  // each cell at its algorithm's learning rate instead. warmup 0 defaults
  // to rounds/2 so post-warmup regret is meaningful out of the box.
  // metrics.names selects the streaming metrics (metrics/metric.h) every
  // cell computes: their scalars become the per-cell statistics, the
  // table()/to_csv() columns and the shard CSV columns. Empty = the default
  // set ("regret", "violations", "switches"), which reproduces the
  // historical fixed columns exactly. The RESOLVED list enters
  // campaign_config_hash, so shards with different metric selections refuse
  // to merge (and an explicit default list hashes like an empty one).
  MetricsRecorder::Options metrics{};
  // Keeps the full per-replicate SimResults in memory in each cell, for
  // in-process callers that want SimResult objects without a disk round
  // trip. Shard files never carry them: persist per-replicate data with
  // trace_dir instead, which costs O(1) memory per replicate during the run
  // and lets metrics be re-selected after the fact.
  bool keep_results = false;
  // When non-empty: persist every replicate's per-round stream as a binary
  // trace (io/trace_log.h) named trace_file_name(flat_index, replicate)
  // under this directory (created if missing), stamped with this campaign's
  // campaign_config_hash. Replaying a trace (io/trace_reader.h) gives the
  // replicate's results bit-equal to the live run's. Excluded from
  // campaign_config_hash, like the shard spec and pool: a trace tap must
  // not change any number.
  std::string trace_dir;
  // Common random numbers across the noise axis: cells differing only in
  // noise reuse the same per-replicate seeds, so noise sweeps (rho, the
  // adversary gallery) become paired comparisons with reduced variance.
  // Off: every cell gets independent seeds.
  bool pair_noise_seeds = false;
  // The slice of the matrix to run (see ShardSpec). Does not enter
  // campaign_config_hash: every shard of one campaign shares the hash, which
  // is exactly what lets the merge check they came from the same config.
  ShardSpec shard{};
  // nullptr = the process-global pool.
  ThreadPool* pool = nullptr;
  // Optional progress observer (see CampaignProgress above). Not owned;
  // must outlive run_campaign. Excluded from campaign_config_hash.
  CampaignProgress* progress = nullptr;
  // Optional cooperative cancellation flag. Not owned; must outlive
  // run_campaign. When it reads true, the campaign stops starting new
  // replicate bodies (pending tasks drain as no-ops), suppresses further
  // cell folds, and run_campaign throws CampaignCancelledError once the
  // executor drains. Cells folded BEFORE the flag was observed are exact —
  // the daemon's CancelJob and the fleet worker's LeaseRevoked both use
  // this, and a revoked worker's already-shipped cells stay valid. Excluded
  // from campaign_config_hash, like every other scheduling knob.
  const std::atomic<bool>* cancel = nullptr;
};

// One (scenario, algo, noise) entry of the matrix.
struct CampaignCell {
  // Position in the full scenario-major matrix (stable across sharding —
  // what the merge sorts by to restore unsharded cell order).
  std::size_t flat_index = 0;
  std::string scenario;  // scenario display label
  std::string algo;
  std::string noise;
  Engine engine = Engine::kAggregate;  // the engine the cell resolved to
  // Replicate statistics of every selected metric scalar, parallel to
  // CampaignResult::scalar_columns(); CampaignResult::metric looks one up
  // by name.
  std::vector<RunningStats> metric_stats;
  std::vector<SimResult> results;  // per replicate; empty unless kept
};

struct CampaignResult {
  std::vector<CampaignCell> cells;  // scenario-major, then algo, then noise
  // The resolved metric selection the cells were computed with (empty only
  // for hand-built results, which table() treats as the default set).
  std::vector<std::string> metrics;

  // Flattened scalar column specs for `metrics` — the layout of every
  // cell's metric_stats and of the table()/to_csv()/shard CSV columns.
  std::vector<MetricScalar> scalar_columns() const;

  // Scalar lookup, the campaign analogue of SimResult::metric: the replicate
  // statistics of the selected scalar `name` (e.g. "regret",
  // "switches_per_ant_round") in `cell`, one of this result's cells. Throws
  // std::invalid_argument naming the selected scalars otherwise.
  const RunningStats& metric(const CampaignCell& cell,
                             std::string_view name) const;

  // Tidy results: one row per cell with labels plus, per selected scalar,
  // the replicate mean (and a ci95 column where the metric declares one).
  // to_csv() is the same data as CSV.
  Table table() const;
  std::string to_csv() const;

  // First cell matching the given labels (empty selector = any); nullptr if
  // none. Benches use this to apply shape gates to specific cells.
  const CampaignCell* find(const std::string& scenario,
                           const std::string& algo = "",
                           const std::string& noise = "") const;
};

// Thrown by run_campaign when cfg.cancel was observed true: the campaign
// drained without computing every owned cell, so there is no result to
// return. Distinct from std::invalid_argument (a bad config) — callers that
// requested the cancellation catch this and treat it as clean shutdown.
class CampaignCancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Runs the matrix — the whole thing with the default ShardSpec, or just the
// cells cfg.shard owns. Throws std::invalid_argument on an empty axis, an
// invalid shard (index >= count or count == 0, or a non-ascending explicit
// cell list), or a cell that cannot run (e.g. Engine::kAggregate forced for
// an agent-only algorithm), and CampaignCancelledError when cfg.cancel
// fired. A shard that owns zero cells (count > total cells) returns an
// empty result.
CampaignResult run_campaign(const CampaignConfig& cfg);

// Sharding helpers. ---------------------------------------------------------

// scenarios × algos × noises.
std::size_t campaign_total_cells(const CampaignConfig& cfg);

// Whether `shard` owns the cell at `flat_index`. Throws on an invalid spec.
bool shard_owns(const ShardSpec& shard, std::size_t flat_index);

// The flat indices `shard` owns out of `total_cells`, ascending. For any
// total, the index sets of shards 0..count-1 are disjoint and their union is
// {0, …, total_cells-1} (campaign_shard_test pins this, ragged splits
// included).
std::vector<std::size_t> shard_cell_indices(std::size_t total_cells,
                                            const ShardSpec& shard);

// Content fingerprint of everything that determines a campaign's numbers:
// both axes' labels and parameters, scenario schedules segment by segment
// (demands + active sets), engine, colony shape, seed, replicates, metrics
// options INCLUDING the resolved metric-name selection (so shards computed
// with different metric sets — hence different columns — refuse to merge),
// and the seed-pairing/keep_results switches. Deliberately excluded:
// the shard spec, thread pool and progress observer (they must not affect
// results — that is the whole point), and the noise factories' behavior (closures cannot be
// hashed; the noise NAME stands in for it, so give distinct noise configs
// distinct names). Two shard files merge only if their hashes agree.
std::uint64_t campaign_config_hash(const CampaignConfig& cfg);

// Per-cell merge: each cell drops into slots_[flat_index] the moment it
// lands (the fleet coordinator, src/orch/coordinator.h, folds as results
// arrive; merge_campaign_dir folds shard files), and take() hands back the
// full matrix in flat order — bit-identical to the unsharded run.
// Per-replicate payloads (keep_results) ride along: add() moves the whole
// cell.
//
// Duplicate policy is explicit because retry makes duplicates NORMAL in a
// fleet (a straggler finishing after its lease was reissued) but a BUG in a
// directory merge (two shard files claiming the same index):
//   kReject       — any duplicate throws std::invalid_argument.
//   kVerifyEqual  — a duplicate is compared bit-for-bit (labels, engine,
//                   every RunningStats::State word of every scalar) against
//                   the first completion and dropped when identical; a
//                   MISMATCHED duplicate throws std::invalid_argument. This
//                   is the exactly-once argument: first-completion-wins,
//                   and a retry can confirm a number but never change one.
class IncrementalMerger {
 public:
  enum class Duplicates { kReject, kVerifyEqual };

  IncrementalMerger(std::size_t total_cells, std::vector<std::string> metrics,
                    Duplicates duplicates = Duplicates::kReject);

  // Folds one cell. Returns true when the cell filled a new slot, false
  // when it was a verified byte-equal duplicate (kVerifyEqual only).
  // Throws std::invalid_argument on an out-of-range index, a scalar count
  // that contradicts the metric selection, a rejected duplicate, or a
  // duplicate whose bits differ from the first completion.
  bool add(CampaignCell cell);

  bool has(std::size_t flat_index) const;
  std::size_t filled() const { return filled_; }
  std::size_t total_cells() const { return seen_.size(); }
  bool complete() const { return filled_ == seen_.size(); }
  const std::vector<std::string>& metrics() const { return metrics_; }

  // The reassembled result; throws std::invalid_argument while incomplete.
  // The merger is empty afterwards.
  CampaignResult take();

 private:
  std::vector<CampaignCell> slots_;
  std::vector<std::uint8_t> seen_;
  std::size_t filled_ = 0;
  std::vector<std::string> metrics_;
  std::size_t n_scalars_ = 0;
  Duplicates duplicates_ = Duplicates::kReject;
};

}  // namespace antalloc
