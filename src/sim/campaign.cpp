#include "sim/campaign.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "io/trace_log.h"
#include "parallel/thread_pool.h"
#include "rng/splitmix.h"

namespace antalloc {

namespace {

void validate_shard(const ShardSpec& shard) {
  if (!shard.cells.empty()) {
    // Explicit ownership: the list must be strictly ascending so membership
    // is a binary search and two lists describe the same set iff they are
    // byte-equal.
    for (std::size_t i = 1; i < shard.cells.size(); ++i) {
      if (shard.cells[i] <= shard.cells[i - 1]) {
        throw std::invalid_argument(
            "ShardSpec: explicit cells must be strictly ascending");
      }
    }
    return;
  }
  if (shard.count == 0) {
    throw std::invalid_argument("ShardSpec: count >= 1");
  }
  if (shard.index >= shard.count) {
    throw std::invalid_argument("ShardSpec: index < count");
  }
}

std::uint64_t mix_str(std::uint64_t h, std::string_view s) {
  return rng::hash_combine(h, rng::hash_string(s));
}

std::uint64_t mix_f64(std::uint64_t h, double v) {
  return rng::hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  return rng::hash_combine(h, v);
}

}  // namespace

std::vector<MetricScalar> CampaignResult::scalar_columns() const {
  // metric_scalar_columns resolves an empty selection to the default set,
  // which is also the right reading for hand-built results.
  return metric_scalar_columns(metrics);
}

const RunningStats& CampaignResult::metric(const CampaignCell& cell,
                                           std::string_view name) const {
  const std::vector<MetricScalar> specs = scalar_columns();
  std::string known;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == name) return cell.metric_stats.at(i);
    if (!known.empty()) known += ", ";
    known += specs[i].name;
  }
  throw std::invalid_argument("CampaignResult::metric: no scalar '" +
                              std::string(name) + "' (selected: " + known +
                              ")");
}

Table CampaignResult::table() const {
  const std::vector<MetricScalar> specs = scalar_columns();
  std::vector<std::string> header{"scenario", "algo", "noise", "engine",
                                  "replicates"};
  for (const MetricScalar& spec : specs) {
    header.push_back(spec.column);
    if (spec.ci95) header.push_back(spec.name + "_ci95");
  }
  Table t(header);
  for (const auto& cell : cells) {
    if (cell.metric_stats.size() != specs.size()) {
      throw std::logic_error(
          "CampaignResult::table: cell metric_stats do not match the "
          "result's metric selection (" +
          std::to_string(cell.metric_stats.size()) + " vs " +
          std::to_string(specs.size()) + " scalars)");
    }
    // specs is never empty (an empty selection resolves to the default
    // set), so the first scalar's count is the replicate count.
    std::vector<std::string> row{cell.scenario, cell.algo, cell.noise,
                                 std::string(to_string(cell.engine)),
                                 Table::fmt(cell.metric_stats[0].count())};
    for (std::size_t i = 0; i < specs.size(); ++i) {
      row.push_back(Table::fmt(cell.metric_stats[i].mean(), specs[i].digits));
      if (specs[i].ci95) {
        row.push_back(Table::fmt(cell.metric_stats[i].ci_halfwidth(),
                                 specs[i].ci_digits));
      }
    }
    t.add_row(std::move(row));
  }
  return t;
}

std::string CampaignResult::to_csv() const { return table().to_csv(); }

const CampaignCell* CampaignResult::find(const std::string& scenario,
                                         const std::string& algo,
                                         const std::string& noise) const {
  for (const auto& cell : cells) {
    if (!scenario.empty() && cell.scenario != scenario) continue;
    if (!algo.empty() && cell.algo != algo) continue;
    if (!noise.empty() && cell.noise != noise) continue;
    return &cell;
  }
  return nullptr;
}

CampaignResult run_campaign(const CampaignConfig& cfg) {
  if (cfg.scenarios.empty()) {
    throw std::invalid_argument("run_campaign: no scenarios");
  }
  if (cfg.algos.empty()) throw std::invalid_argument("run_campaign: no algos");
  if (cfg.noises.empty()) {
    throw std::invalid_argument("run_campaign: no noise specs");
  }
  if (cfg.replicates < 1) {
    throw std::invalid_argument("run_campaign: replicates >= 1");
  }
  validate_shard(cfg.shard);
  // A trace's active-task mask is one 64-bit word (io/trace_log.h): refuse
  // a wider colony here, before any replicate runs or any file is created.
  if (!cfg.trace_dir.empty()) {
    for (const Scenario& scenario : cfg.scenarios) {
      if (scenario.schedule.num_tasks() > kMaxAgentTasks) {
        throw std::invalid_argument(
            "run_campaign: trace_dir supports at most " +
            std::to_string(kMaxAgentTasks) + " tasks (a trace's active mask "
            "is one 64-bit word); scenario '" + scenario.name + "' has " +
            std::to_string(scenario.schedule.num_tasks()));
      }
    }
  }

  // Resolve the metric selection once: every cell runs the same observers,
  // and the flattened scalar specs fix the metric_stats/table layout.
  const std::vector<std::string> metric_families =
      resolve_metric_names(cfg.metrics.names);
  const std::vector<MetricScalar> scalar_specs =
      metric_scalar_columns(metric_families);

  CampaignResult out;
  out.metrics = metric_families;

  // One provenance stamp for every trace this campaign writes; computed
  // once, outside the cell loop (the hash walks every schedule).
  std::uint64_t trace_hash = 0;
  if (!cfg.trace_dir.empty()) {
    std::filesystem::create_directories(cfg.trace_dir);
    trace_hash = campaign_config_hash(cfg);
  }

  // Phase 1 — plan (sequential, cheap). All seed derivation and engine
  // resolution happens here, exactly as the historical sequential cell loop
  // did it, so the numbers cannot depend on what phase 2 schedules where.
  struct CellPlan {
    std::size_t flat = 0;
    const Scenario* scenario = nullptr;
    const NoiseSpec* noise = nullptr;
    ExperimentConfig ecfg;
    SinkFactory make_sink;
  };
  std::vector<CellPlan> plans;
  std::vector<CampaignCell> cells;
  for (std::size_t si = 0; si < cfg.scenarios.size(); ++si) {
    const Scenario& scenario = cfg.scenarios[si];
    for (std::size_t ai = 0; ai < cfg.algos.size(); ++ai) {
      const AlgoConfig& algo = cfg.algos[ai];
      for (std::size_t ni = 0; ni < cfg.noises.size(); ++ni) {
        const NoiseSpec& noise = cfg.noises[ni];
        const std::size_t flat =
            (si * cfg.algos.size() + ai) * cfg.noises.size() + ni;
        if (!shard_owns(cfg.shard, flat)) continue;

        CellPlan plan;
        plan.flat = flat;
        plan.scenario = &scenario;
        plan.noise = &noise;

        ExperimentConfig& ecfg = plan.ecfg;
        ecfg.algo = algo;
        ecfg.n_ants = cfg.n_ants;
        ecfg.rounds = cfg.rounds;
        // Cell seed from matrix coordinates, not from loop scheduling:
        // replicate seeds derive from it by index inside run_replicate.
        // With pair_noise_seeds the noise coordinate is left out, giving
        // common random numbers across the noise axis.
        ecfg.seed = rng::hash_words(cfg.seed, si, ai,
                                    cfg.pair_noise_seeds ? 0 : ni);
        ecfg.initial = scenario.initial;
        ecfg.initial_loads = scenario.initial_loads;
        ecfg.metrics = cfg.metrics;
        ecfg.metrics.names = metric_families;
        ecfg.sampling = cfg.sampling;
        if (ecfg.metrics.warmup == 0) ecfg.metrics.warmup = cfg.rounds / 2;

        CampaignCell cell;
        cell.flat_index = flat;
        cell.scenario = scenario.name;
        cell.algo = algo.name;
        cell.noise = noise.name;
        // Resolve the engine once per cell and pin it in the trial config,
        // so the engine reported here is provably the one the replicates
        // ran (and run_experiment does not re-resolve per replicate).
        {
          const auto probe = noise.make();
          cell.engine = resolve_engine(cfg.engine, algo, *probe);
        }
        ecfg.engine = cell.engine;

        // With trace_dir set, every replicate gets its own TraceWriter on
        // the recorder's sink tap. The header carries the RESOLVED recorder
        // options (gamma falls back to this cell's algorithm learning rate
        // inside run_experiment), so a replay reconstructs the recorder the
        // replicate actually ran.
        if (!cfg.trace_dir.empty()) {
          const MetricsRecorder::Options resolved = resolved_metrics(ecfg);
          TraceMeta meta{.n_ants = cfg.n_ants,
                         .config_hash = trace_hash,
                         .gamma = resolved.gamma,
                         .bands = resolved.bands,
                         .warmup = resolved.warmup};
          const DemandSchedule* schedule = &scenario.schedule;
          plan.make_sink = [&cfg, meta, schedule, flat](
                               std::int64_t trial, std::uint64_t seed)
              -> std::unique_ptr<RoundSink> {
            TraceMeta m = meta;
            m.seed = seed;
            return std::make_unique<TraceWriter>(
                (std::filesystem::path(cfg.trace_dir) /
                 trace_file_name(flat, trial))
                    .string(),
                *schedule, m);
          };
        }

        plans.push_back(std::move(plan));
        cells.push_back(std::move(cell));
      }
    }
  }

  // Phase 2 — run the flat (cell × replicate) space as one task graph.
  // Every replicate is an independent stealable task writing into its own
  // pre-sized slot; there is no per-cell barrier. A cell folds the moment
  // its own last replicate lands, detected by a per-cell atomic countdown:
  // the release half of the fetch_sub publishes each task's slot write, the
  // acquire half lets the final decrementer read all of them.
  const std::int64_t reps = cfg.replicates;
  const std::size_t n_cells = plans.size();
  std::vector<std::vector<SimResult>> slots(n_cells);
  for (auto& s : slots) s.resize(static_cast<std::size_t>(reps));

  struct CellTrack {
    std::atomic<std::int64_t> remaining{0};
    std::atomic<bool> started{false};
  };
  std::unique_ptr<CellTrack[]> tracks(new CellTrack[n_cells]);
  for (std::size_t i = 0; i < n_cells; ++i) {
    tracks[i].remaining.store(reps, std::memory_order_relaxed);
  }

  TaskGraph& graph = (cfg.pool != nullptr ? *cfg.pool : global_pool()).graph();
  const std::uint64_t steals_base = graph.steals();
  std::atomic<std::size_t> cells_done{0};
  std::atomic<std::size_t> cells_started{0};
  std::atomic<std::int64_t> replicates_done{0};
  std::mutex progress_mutex;

  const TaskGraph::IndexFn body = [&](std::int64_t ti) {
    // Cooperative cancellation, checked at every replicate boundary: once
    // the flag reads true, remaining tasks drain as no-ops (their slots stay
    // empty and on_done suppresses the fold).
    if (cfg.cancel != nullptr &&
        cfg.cancel->load(std::memory_order_relaxed)) {
      return;
    }
    const std::size_t ci = static_cast<std::size_t>(ti / reps);
    const std::int64_t rep = ti % reps;
    if (!tracks[ci].started.exchange(true, std::memory_order_relaxed)) {
      cells_started.fetch_add(1, std::memory_order_relaxed);
    }
    const CellPlan& plan = plans[ci];
    slots[ci][static_cast<std::size_t>(rep)] = run_replicate(
        plan.ecfg, plan.noise->make, plan.scenario->schedule, rep,
        plan.make_sink);
  };
  const TaskGraph::IndexFn on_done = [&](std::int64_t ti) {
    const std::size_t ci = static_cast<std::size_t>(ti / reps);
    replicates_done.fetch_add(1, std::memory_order_relaxed);
    if (tracks[ci].remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    // After a cancellation some of this cell's slots were never written —
    // folding them would produce numbers no complete run ever computes.
    if (cfg.cancel != nullptr &&
        cfg.cancel->load(std::memory_order_relaxed)) {
      return;
    }
    // Last replicate of this cell: fold. One RunningStats per selected
    // scalar, fed from each replicate's metric map in REPLICATE order —
    // not completion order — so the accumulator states are bit-identical
    // to the sequential loop's (and to every other worker count's).
    CampaignCell& cell = cells[ci];
    cell.metric_stats.assign(scalar_specs.size(), RunningStats{});
    for (const auto& r : slots[ci]) {
      for (std::size_t k = 0; k < scalar_specs.size(); ++k) {
        cell.metric_stats[k].add(r.metric(scalar_specs[k].name));
      }
    }
    if (cfg.keep_results) {
      cell.results = std::move(slots[ci]);
    } else {
      // Release replicate memory as cells retire instead of holding every
      // slot until the shard finishes.
      slots[ci] = {};
    }
    const std::size_t done = cells_done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (cfg.progress != nullptr) {
      // Serialize observer calls (the contract CampaignProgress documents);
      // the in-flight count is a best-effort snapshot.
      std::lock_guard lock(progress_mutex);
      CampaignProgress::Update u;
      u.flat_index = cell.flat_index;
      u.cells_done = done;
      u.cells_total = n_cells;
      const std::size_t started = cells_started.load(std::memory_order_relaxed);
      u.cells_in_flight = started > done ? started - done : 0;
      u.replicates_done = replicates_done.load(std::memory_order_relaxed);
      u.steals = graph.steals() - steals_base;
      u.cell = &cell;
      cfg.progress->on_cell_done(u);
    }
  };
  graph.run_indexed(0, static_cast<std::int64_t>(n_cells) * reps, 1, body,
                    on_done);

  if (cfg.cancel != nullptr && cfg.cancel->load(std::memory_order_relaxed)) {
    throw CampaignCancelledError(
        "campaign cancelled (" +
        std::to_string(cells_done.load(std::memory_order_relaxed)) + " of " +
        std::to_string(n_cells) + " owned cells folded)");
  }

  out.cells = std::move(cells);
  return out;
}

std::size_t campaign_total_cells(const CampaignConfig& cfg) {
  return cfg.scenarios.size() * cfg.algos.size() * cfg.noises.size();
}

bool shard_owns(const ShardSpec& shard, std::size_t flat_index) {
  validate_shard(shard);
  if (!shard.cells.empty()) {
    return std::binary_search(shard.cells.begin(), shard.cells.end(),
                              flat_index);
  }
  return flat_index % shard.count == shard.index;
}

std::vector<std::size_t> shard_cell_indices(std::size_t total_cells,
                                            const ShardSpec& shard) {
  validate_shard(shard);
  if (!shard.cells.empty()) {
    if (shard.cells.back() >= total_cells) {
      throw std::invalid_argument(
          "ShardSpec: explicit cell " + std::to_string(shard.cells.back()) +
          " out of range (total " + std::to_string(total_cells) + ")");
    }
    return shard.cells;
  }
  std::vector<std::size_t> indices;
  indices.reserve(total_cells / shard.count + 1);
  for (std::size_t flat = shard.index; flat < total_cells;
       flat += shard.count) {
    indices.push_back(flat);
  }
  return indices;
}

std::uint64_t campaign_config_hash(const CampaignConfig& cfg) {
  // v2: the resolved metric selection entered the fingerprint (PR 5), so
  // shards computed with different metric sets — different columns — can
  // never merge, and pre-redesign shards are rejected wholesale.
  // v3: the agent-engine sampling mode entered (batched fast path) — the
  // two modes draw different equivalent-in-law streams, so shards must not
  // mix them, and pre-batching shards are rejected wholesale.
  // v4: rng::binomial became an in-repo BTRD sampler, which changed every
  // count stream (aggregate kernels, batched agent counts, random initial
  // allocations); shards from before and after that change must not mix.
  // trace_dir, like the shard spec and pool, stays OUT of the hash: where a
  // campaign's traces land must not change any number it computes.
  std::uint64_t h = rng::hash_string("antalloc-campaign-v4");

  h = mix_u64(h, cfg.scenarios.size());
  for (const Scenario& sc : cfg.scenarios) {
    h = mix_str(h, sc.name);
    h = mix_str(h, sc.family);
    h = mix_u64(h, static_cast<std::uint64_t>(sc.initial));
    h = mix_u64(h, sc.initial_loads.size());
    for (const Count c : sc.initial_loads) {
      h = mix_u64(h, static_cast<std::uint64_t>(c));
    }
    const DemandSchedule& sched = sc.schedule;
    h = mix_u64(h, sched.num_segments());
    for (std::size_t i = 0; i < sched.num_segments(); ++i) {
      h = mix_u64(h, static_cast<std::uint64_t>(sched.segment_start(i)));
      for (const Count c : sched.segment_demands(i).values()) {
        h = mix_u64(h, static_cast<std::uint64_t>(c));
      }
      const ActiveSet& active = sched.segment_active(i);
      for (TaskId j = 0; j < active.num_tasks(); ++j) {
        h = mix_u64(h, active[j] ? 1u : 0u);
      }
    }
  }

  h = mix_u64(h, cfg.algos.size());
  for (const AlgoConfig& algo : cfg.algos) {
    h = mix_str(h, algo.name);
    h = mix_f64(h, algo.gamma);
    h = mix_f64(h, algo.epsilon);
    h = mix_f64(h, algo.cs);
    h = mix_f64(h, algo.cd);
    h = mix_f64(h, algo.cchi);
    h = mix_u64(h, algo.verbatim_leave_probability ? 1u : 0u);
  }

  h = mix_u64(h, cfg.noises.size());
  for (const NoiseSpec& noise : cfg.noises) h = mix_str(h, noise.name);

  h = mix_u64(h, static_cast<std::uint64_t>(cfg.engine));
  h = mix_u64(h, static_cast<std::uint64_t>(cfg.sampling));
  h = mix_u64(h, static_cast<std::uint64_t>(cfg.n_ants));
  h = mix_u64(h, static_cast<std::uint64_t>(cfg.rounds));
  h = mix_u64(h, cfg.seed);
  h = mix_u64(h, static_cast<std::uint64_t>(cfg.replicates));
  h = mix_f64(h, cfg.metrics.gamma);
  h = mix_f64(h, cfg.metrics.bands.cs);
  h = mix_f64(h, cfg.metrics.bands.cd);
  h = mix_u64(h, static_cast<std::uint64_t>(cfg.metrics.warmup));
  h = mix_u64(h, static_cast<std::uint64_t>(cfg.metrics.trace_stride));
  // Hash the RESOLVED selection: an empty list and an explicit default list
  // are the same campaign.
  const std::vector<std::string> families =
      resolve_metric_names(cfg.metrics.names);
  h = mix_u64(h, families.size());
  for (const std::string& name : families) h = mix_str(h, name);
  h = mix_u64(h, cfg.keep_results ? 1u : 0u);
  h = mix_u64(h, cfg.pair_noise_seeds ? 1u : 0u);
  return h;
}

namespace {

// Bitwise identity of two Welford accumulator states: doubles compare as
// raw bit patterns, so even a NaN-for-NaN match counts and a last-ulp
// difference does not.
bool states_identical(const RunningStats::State& a,
                      const RunningStats::State& b) {
  return a.count == b.count &&
         std::bit_cast<std::uint64_t>(a.mean) ==
             std::bit_cast<std::uint64_t>(b.mean) &&
         std::bit_cast<std::uint64_t>(a.m2) ==
             std::bit_cast<std::uint64_t>(b.m2) &&
         std::bit_cast<std::uint64_t>(a.min) ==
             std::bit_cast<std::uint64_t>(b.min) &&
         std::bit_cast<std::uint64_t>(a.max) ==
             std::bit_cast<std::uint64_t>(b.max);
}

bool cells_identical(const CampaignCell& a, const CampaignCell& b) {
  if (a.flat_index != b.flat_index || a.scenario != b.scenario ||
      a.algo != b.algo || a.noise != b.noise || a.engine != b.engine ||
      a.metric_stats.size() != b.metric_stats.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.metric_stats.size(); ++i) {
    if (!states_identical(a.metric_stats[i].state(),
                          b.metric_stats[i].state())) {
      return false;
    }
  }
  return true;
}

}  // namespace

IncrementalMerger::IncrementalMerger(std::size_t total_cells,
                                     std::vector<std::string> metrics,
                                     Duplicates duplicates)
    : slots_(total_cells),
      seen_(total_cells, 0),
      metrics_(std::move(metrics)),
      n_scalars_(metric_scalar_columns(metrics_).size()),
      duplicates_(duplicates) {}

bool IncrementalMerger::add(CampaignCell cell) {
  if (cell.flat_index >= slots_.size()) {
    throw std::invalid_argument(
        "IncrementalMerger: cell index " + std::to_string(cell.flat_index) +
        " out of range (total " + std::to_string(slots_.size()) + ")");
  }
  if (cell.metric_stats.size() != n_scalars_) {
    throw std::invalid_argument(
        "IncrementalMerger: cell " + std::to_string(cell.flat_index) +
        " carries " + std::to_string(cell.metric_stats.size()) +
        " scalars, the metric selection has " + std::to_string(n_scalars_));
  }
  if (seen_[cell.flat_index]) {
    if (duplicates_ == Duplicates::kReject) {
      throw std::invalid_argument("IncrementalMerger: duplicate cell " +
                                  std::to_string(cell.flat_index));
    }
    // First-completion-wins: the slot already holds the folded cell. The
    // duplicate must be bit-identical — same labels, same engine, same
    // Welford state words — or a retry computed a DIFFERENT number for the
    // same (config_hash, cell) key, which exactly-once folding must refuse
    // to paper over.
    if (!cells_identical(slots_[cell.flat_index], cell)) {
      throw std::invalid_argument(
          "IncrementalMerger: duplicate completion of cell " +
          std::to_string(cell.flat_index) +
          " differs bit-wise from the first — refusing to fold");
    }
    return false;
  }
  seen_[cell.flat_index] = 1;
  slots_[cell.flat_index] = std::move(cell);
  ++filled_;
  return true;
}

bool IncrementalMerger::has(std::size_t flat_index) const {
  return flat_index < seen_.size() && seen_[flat_index] != 0;
}

CampaignResult IncrementalMerger::take() {
  if (!complete()) {
    throw std::invalid_argument("IncrementalMerger: incomplete cell set (" +
                                std::to_string(filled_) + " of " +
                                std::to_string(seen_.size()) + " cells)");
  }
  CampaignResult out;
  out.cells = std::move(slots_);
  out.metrics = std::move(metrics_);
  slots_ = {};
  seen_ = {};
  filled_ = 0;
  return out;
}

}  // namespace antalloc
