// Experiment façade: one call from an algorithm name + noise model factory +
// demand schedule to replicated, parallel simulation results. This is the
// API every bench and example builds on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "agent/agent_sim.h"
#include "algo/registry.h"
#include "core/allocation.h"
#include "core/demand.h"
#include "metrics/regret.h"

namespace antalloc {

class ThreadPool;

// Builds a fresh noise-model instance per trial (models may be stateful).
using ModelFactory = std::function<std::unique_ptr<FeedbackModel>()>;

// Which engine executes a trial. kAuto resolves per run: the aggregate
// kernel where it is sound (the algorithm has one, the noise is i.i.d.
// across ants, and — for kernels that require it — deterministic), the
// per-ant engine otherwise.
enum class Engine { kAuto, kAggregate, kAgent };

// Parses "auto" | "aggregate" | "agent"; throws std::invalid_argument
// naming the valid engines otherwise. String inputs (CLI flags, configs)
// are parsed once at this boundary; everything below works on the enum.
Engine parse_engine(std::string_view name);
std::string_view to_string(Engine engine);

struct ExperimentConfig {
  AlgoConfig algo{};
  // kAggregate: exact count kernel (i.i.d. noise only). kAgent: per-ant
  // simulation (any noise). kAuto: pick per run (see Engine).
  Engine engine = Engine::kAggregate;
  Count n_ants = 1 << 14;
  Round rounds = 10'000;
  std::uint64_t seed = 1;
  // Initial allocation kind (see make_initial_allocation); ignored when
  // initial_loads is non-empty.
  InitialKind initial = InitialKind::kIdle;
  // Explicit per-task starting loads (remaining ants idle). Overrides
  // `initial` — for warm starts and bespoke hostile states.
  std::vector<Count> initial_loads;
  // Recording options, including the streaming metric selection:
  // metrics.names lists registry metrics (metrics/metric.h) whose named
  // scalars land in SimResult::metric_names/metric_values; empty = the
  // default set ("regret", "violations", "switches").
  MetricsRecorder::Options metrics{};
  // Agent-engine sampling mode. Experiments default to the batched fast
  // path (the engine falls back to per-ant automatically where batching is
  // unsound or unsupported); pass kPerAnt to pin the legacy golden-traced
  // stream. Ignored by the aggregate engine.
  SamplingMode sampling = SamplingMode::kBatched;
};

// The engine kAuto resolves to for this algorithm + noise model: the
// aggregate kernel iff one exists and its supports(fm) predicate accepts
// the model (i.i.d.-across-ants by default; deterministic-only for the
// Precise Adversarial kernel).
Engine resolve_engine(Engine engine, const AlgoConfig& algo,
                      const FeedbackModel& fm);

// The recorder options run_experiment actually uses: cfg.metrics with gamma
// resolved to the algorithm's learning rate when unset (<= 0). Trace
// writers (io/trace_log.h) stamp THIS gamma into headers, so replay
// reconstructs the recorder the live run had, not the unresolved config.
MetricsRecorder::Options resolved_metrics(const ExperimentConfig& cfg);

// Runs a single trial.
SimResult run_experiment(const ExperimentConfig& cfg, FeedbackModel& fm,
                         const DemandSchedule& schedule);

// Builds a per-trial RoundSink (metrics/metric.h) — the hook campaigns use
// to attach one binary trace writer per replicate. Called with the trial
// index and the trial's derived seed; may return nullptr for "no sink on
// this trial". The runner wires the sink into the trial's recorder and
// calls close() after the run (so deferred I/O errors propagate out of
// run_replicated_experiment instead of dying in a destructor).
using SinkFactory =
    std::function<std::unique_ptr<RoundSink>(std::int64_t trial,
                                             std::uint64_t seed)>;

// Runs exactly ONE replicate of a replicated experiment: the trial seed is
// hash(cfg.seed, trial) — the same derivation run_replicated_experiment
// uses — a fresh model instance, and an optional per-trial sink (closed
// before returning so deferred I/O errors propagate). This is the unit the
// work-stealing campaign schedules as an independent task; calling it for
// every trial index reproduces run_replicated_experiment bit-for-bit.
SimResult run_replicate(const ExperimentConfig& cfg,
                        const ModelFactory& make_model,
                        const DemandSchedule& schedule, std::int64_t trial,
                        const SinkFactory& make_sink = {});

// Runs `replicates` independent trials in parallel (deterministic per-trial
// seeds derived from cfg.seed, independent of thread count). `pool` selects
// the thread pool; nullptr uses the process-global one.
std::vector<SimResult> run_replicated_experiment(
    const ExperimentConfig& cfg, const ModelFactory& make_model,
    const DemandSchedule& schedule, std::int64_t replicates,
    ThreadPool* pool = nullptr, const SinkFactory& make_sink = {});

// Pulls the named scalar from each replicate's metric map (SimResult). For
// the historical scalars ("regret", "violations", "switches_per_ant_round")
// it falls back to the always-on legacy SimResult fields when the run did
// not select the metric, so extraction works on any result set. Throws
// std::invalid_argument for a scalar that is neither recorded nor
// legacy-derivable.
std::vector<double> extract_metric(const std::vector<SimResult>& results,
                                   std::string_view name);

}  // namespace antalloc
