#include "sim/experiment.h"

#include <stdexcept>

#include "agent/agent_sim.h"
#include "aggregate/aggregate_sim.h"
#include "parallel/trial_runner.h"
#include "rng/splitmix.h"

namespace antalloc {
namespace {

// Substream tag separating initial-allocation randomness from the dynamics
// stream: both derive from cfg.seed, but a "random" start must not reuse the
// exact seed the engines consume for feedback/decision draws.
constexpr std::uint64_t kInitialAllocationStream = 0xA110C;

std::vector<Count> initial_loads(const ExperimentConfig& cfg,
                                 std::int32_t k) {
  if (!cfg.initial_loads.empty()) {
    if (static_cast<std::int32_t>(cfg.initial_loads.size()) != k) {
      throw std::invalid_argument(
          "run_experiment: initial_loads size does not match the schedule's "
          "task count");
    }
    return cfg.initial_loads;
  }
  const Allocation alloc = make_initial_allocation(
      cfg.initial, cfg.n_ants, k,
      rng::hash_combine(cfg.seed, kInitialAllocationStream));
  return {alloc.loads().begin(), alloc.loads().end()};
}

}  // namespace

Engine parse_engine(std::string_view name) {
  if (name == "auto") return Engine::kAuto;
  if (name == "aggregate") return Engine::kAggregate;
  if (name == "agent") return Engine::kAgent;
  throw std::invalid_argument("parse_engine: unknown engine '" +
                              std::string(name) +
                              "' (expected auto | aggregate | agent)");
}

std::string_view to_string(Engine engine) {
  switch (engine) {
    case Engine::kAuto: return "auto";
    case Engine::kAggregate: return "aggregate";
    case Engine::kAgent: return "agent";
  }
  return "?";
}

Engine resolve_engine(Engine engine, const AlgoConfig& algo,
                      const FeedbackModel& fm) {
  if (engine != Engine::kAuto) return engine;
  if (!has_aggregate_kernel(algo.name)) return Engine::kAgent;
  // Ask the kernel itself — supports() is the single source of truth for
  // which models a kernel simulates exactly.
  return make_aggregate_kernel(algo)->supports(fm) ? Engine::kAggregate
                                                   : Engine::kAgent;
}

MetricsRecorder::Options resolved_metrics(const ExperimentConfig& cfg) {
  // Keep the regret-band gamma in sync with the algorithm's learning rate
  // unless the caller overrode it explicitly.
  MetricsRecorder::Options metrics = cfg.metrics;
  if (metrics.gamma <= 0.0) metrics.gamma = cfg.algo.gamma;
  return metrics;
}

SimResult run_experiment(const ExperimentConfig& cfg, FeedbackModel& fm,
                         const DemandSchedule& schedule) {
  const std::int32_t k = schedule.num_tasks();
  const auto loads = initial_loads(cfg, k);
  const MetricsRecorder::Options metrics = resolved_metrics(cfg);

  switch (resolve_engine(cfg.engine, cfg.algo, fm)) {
    case Engine::kAggregate: {
      auto kernel = make_aggregate_kernel(cfg.algo);
      AggregateSimConfig sim{.n_ants = cfg.n_ants,
                             .rounds = cfg.rounds,
                             .seed = cfg.seed,
                             .metrics = metrics,
                             .initial_loads = loads};
      return run_aggregate_sim(*kernel, fm, schedule, sim);
    }
    case Engine::kAgent: {
      auto algo = make_agent_algorithm(cfg.algo);
      AgentSimConfig sim{.n_ants = cfg.n_ants,
                         .rounds = cfg.rounds,
                         .seed = cfg.seed,
                         .metrics = metrics,
                         .initial_loads = loads,
                         .sampling = cfg.sampling};
      return run_agent_sim(*algo, fm, schedule, sim);
    }
    case Engine::kAuto:
      break;  // resolve_engine never returns kAuto
  }
  throw std::logic_error("run_experiment: unresolved engine");
}

SimResult run_replicate(const ExperimentConfig& cfg,
                        const ModelFactory& make_model,
                        const DemandSchedule& schedule, std::int64_t trial,
                        const SinkFactory& make_sink) {
  const std::uint64_t seed =
      rng::hash_combine(cfg.seed, static_cast<std::uint64_t>(trial));
  ExperimentConfig trial_cfg = cfg;
  trial_cfg.seed = seed;
  auto model = make_model();
  std::unique_ptr<RoundSink> sink = make_sink ? make_sink(trial, seed) : nullptr;
  trial_cfg.metrics.sink = sink.get();
  SimResult result = run_experiment(trial_cfg, *model, schedule);
  // Close here, not in the destructor: deferred writer-thread I/O errors
  // must surface as exceptions out of the trial, not vanish.
  if (sink) sink->close();
  return result;
}

std::vector<SimResult> run_replicated_experiment(
    const ExperimentConfig& cfg, const ModelFactory& make_model,
    const DemandSchedule& schedule, std::int64_t replicates, ThreadPool* pool,
    const SinkFactory& make_sink) {
  return run_sim_trials(
      replicates, cfg.seed,
      [&](std::int64_t trial, std::uint64_t /*seed*/) {
        return run_replicate(cfg, make_model, schedule, trial, make_sink);
      },
      pool);
}

std::vector<double> extract_metric(const std::vector<SimResult>& results,
                                   std::string_view name) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const auto& r : results) {
    if (const double* value = r.find_metric(name)) {
      out.push_back(*value);
    } else if (name == "regret") {
      out.push_back(r.post_warmup_average());
    } else if (name == "violations") {
      out.push_back(static_cast<double>(r.violation_rounds));
    } else if (name == "switches_per_ant_round") {
      out.push_back(r.rounds > 0 && r.n_ants > 0
                        ? static_cast<double>(r.switches) /
                              static_cast<double>(r.rounds) /
                              static_cast<double>(r.n_ants)
                        : 0.0);
    } else {
      // Not recorded and not legacy-derivable: re-run with the metric
      // selected (ExperimentConfig::metrics.names).
      r.metric(name);  // throws, naming the recorded scalars
    }
  }
  return out;
}

}  // namespace antalloc
