// antalloc_cli: a general simulator driver — pick the algorithm, noise
// model and colony shape from flags, get a summary table and an ASCII
// deficit plot; or run a whole scenario × algorithm campaign matrix,
// optionally as one shard of a distributed run. The fastest way to poke at
// the system interactively.
//
//   ./build/examples/antalloc_cli --algo=ant --n=65536 --k=4 --demand=4000 --lambda=0.2 --rounds=8000 --gamma=0.05 --plot=true
//   ./build/examples/antalloc_cli --algo=precise-adversarial --noise=adv --adversary=anti-gradient --gamma_ad=0.02
//   ./build/examples/antalloc_cli --campaign=true --scenarios=all --algos=ant,trivial --replicates=4 --csv=campaign.csv
//   ./build/examples/antalloc_cli --campaign=true --scenarios=all --algos=ant --metrics=regret,convergence,oscillation
//   ./build/examples/antalloc_cli --campaign=true --scenarios=all --algos=ant --shard=0/3 --out=shards/
//   ./build/examples/antalloc_cli --merge=shards/ --csv=merged.csv
//   ./build/examples/antalloc_cli --rounds=3000 --trace-out=run.trace
//   ./build/examples/antalloc_cli --replay=run.trace --metrics=regret,oscillation
//   ./build/examples/antalloc_cli --campaign=true --scenarios=all --algos=ant --trace-dir=traces/
//   ./build/examples/antalloc_cli --list-scenarios   (or --list-algos, --list-metrics)
//
// Sharding: --shard=i/N runs only the cells shard i owns and --out writes
// them as a CSV/manifest pair; run all N shards (any machines, any order),
// collect the pairs into one directory, and --merge reassembles the full
// campaign bit-identical to an unsharded run. See docs/CAMPAIGNS.md.
//
// Tracing: --trace-out writes a single run's per-round stream as a binary
// trace; --replay re-drives any metric selection over a trace from disk,
// scalar-for-scalar bit-equal to the live run; --trace-dir persists one
// trace per campaign replicate (the shard results.csv is then replayed from
// them instead of held in memory). See the trace-subsystem section of
// docs/ARCHITECTURE.md.
#include <cstdio>
#include <fstream>
#include <memory>

#include "io/args.h"
#include "io/campaign_io.h"
#include "io/plot.h"
#include "io/table.h"
#include "io/trace_log.h"
#include "io/trace_reader.h"
#include "metrics/convergence.h"
#include "net/server.h"
#include "parallel/task_graph.h"
#include "sim/campaign.h"

#include "daemon_mode.h"
#include "fleet_modes.h"
#include "job_flags.h"

using namespace antalloc;

namespace {

// --progress=true: stream per-cell completions to stderr as the
// work-stealing campaign retires them (completion order, not flat order).
// stdout stays clean for tables and CSV.
class StderrCampaignProgress : public CampaignProgress {
 public:
  void on_cell_done(const Update& u) override {
    std::fprintf(stderr,
                 "[campaign] cell %llu done  %llu/%llu cells, %llu in "
                 "flight, %lld replicates, %llu steals\n",
                 static_cast<unsigned long long>(u.flat_index),
                 static_cast<unsigned long long>(u.cells_done),
                 static_cast<unsigned long long>(u.cells_total),
                 static_cast<unsigned long long>(u.cells_in_flight),
                 static_cast<long long>(u.replicates_done),
                 static_cast<unsigned long long>(u.steals));
  }
};

std::string default_metrics_label() {
  std::string names;
  for (const auto& m : default_metric_names()) {
    if (!names.empty()) names += ",";
    names += m;
  }
  return names;
}

ShardSpec parse_shard(const std::string& s) {
  try {
    const std::size_t slash = s.find('/');
    if (slash == std::string::npos) throw std::invalid_argument(s);
    std::size_t index_end = 0;
    std::size_t count_end = 0;
    ShardSpec spec;
    spec.index = std::stoull(s.substr(0, slash), &index_end);
    spec.count = std::stoull(s.substr(slash + 1), &count_end);
    if (index_end != slash || count_end != s.size() - slash - 1) {
      throw std::invalid_argument(s);
    }
    return spec;
  } catch (const std::exception&) {
    throw std::invalid_argument("--shard expects i/N (e.g. 0/3), got '" + s +
                                "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const std::string algo_name = args.get_string("algo", "ant");
  const std::string engine_name = args.get_string("engine", "auto");
  const std::string sampling_name = args.get_string("sampling", "batched");
  const std::string initial_name = args.get_string("initial", "idle");
  const Count n = args.get_int("n", 1 << 16);
  const auto k = static_cast<std::int32_t>(args.get_int("k", 4));
  const Count demand = args.get_int("demand", 4000);
  const DemandVector demands = uniform_demands(k, demand);
  // Noise flags + learning-rate defaulting, shared with antalloc_client
  // submit (examples/job_flags.h) so both paths resolve identical configs.
  NoiseFlags noise_flags;
  try {
    noise_flags = parse_noise_flags(args, demands);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const double gamma = noise_flags.gamma;
  const double epsilon = noise_flags.epsilon;
  const Round rounds = args.get_int("rounds", 8000);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool plot = args.get_bool("plot", true);
  const bool campaign_mode = args.get_bool("campaign", false);
  const auto serve_port = args.get_int("serve", -1);
  const auto coordinate_port = args.get_int("coordinate", -1);
  const std::string work_for = args.get_string("work-for", "");
  // Declared here for help()/check_unknown(); campaign mode re-reads them
  // through parse_job_spec (examples/job_flags.h).
  (void)args.get_string("scenarios", "all");
  (void)args.get_string("algos", "ant");
  const auto replicates = args.get_int("replicates", 2);
  const std::string csv_path = args.get_string("csv", "");
  const std::string shard_flag = args.get_string("shard", "");
  const std::string out_dir = args.get_string("out", "");
  const std::string merge_dir = args.get_string("merge", "");
  const std::string metrics_flag = args.get_string("metrics", "");
  const std::string trace_out = args.get_string("trace-out", "");
  const std::string replay_path = args.get_string("replay", "");
  const std::string trace_dir = args.get_string("trace-dir", "");
  const auto jobs = args.get_int("jobs", -1);
  const bool show_progress = args.get_bool("progress", false);
  const bool list_scenarios = args.get_bool("list-scenarios", false);
  const bool list_algos = args.get_bool("list-algos", false);
  const bool list_metrics = args.get_bool("list-metrics", false);
  const bool help = args.get_bool("help", false);
  if (help) {
    std::printf("%s\n", args.help().c_str());
    std::printf("algos:");
    for (const auto& a : algorithm_names()) std::printf(" %s", a.c_str());
    std::printf("  (--list-algos for descriptions)\n");
    std::printf("scenarios (--campaign=true; --scenarios=all or a comma "
                "list):\n");
    for (const auto& s : scenario_names()) {
      std::printf("  %-18s %s\n", s.c_str(),
                  std::string(scenario_description(s)).c_str());
    }
    std::printf("noise: sigmoid | adv | exact; engine: auto | agent | "
                "aggregate; initial: idle | uniform | adversarial | random\n");
    std::printf("sampling (agent engine): batched (default, bulk-count fast "
                "path) | per-ant (legacy golden-traced stream)\n");
    std::printf("metrics: --metrics=a,b,c selects streaming metrics "
                "(--list-metrics for the registry; default: %s)\n",
                default_metrics_label().c_str());
    std::printf("sharding: --shard=i/N --out=DIR to run and persist one "
                "shard, --merge=DIR to reassemble (docs/CAMPAIGNS.md)\n");
    std::printf("tracing: --trace-out=FILE (single run) or --trace-dir=DIR "
                "(campaign, one trace per replicate) write binary traces; "
                "--replay=FILE re-drives --metrics over a trace\n");
    std::printf("parallelism: --jobs=N pins the executor width for every "
                "mode (campaign and single runs; 0 = hardware concurrency, "
                "the default); --progress=true streams per-cell campaign "
                "completions to stderr\n");
    std::printf("service: --serve=PORT runs the daemon loop (0 = ephemeral "
                "port; see docs/SERVICE.md and examples/antalloc_client)\n");
    std::printf("fleet: --coordinate=PORT serves a worker fleet over this "
                "process's campaign flags; --work-for=HOST:PORT joins one "
                "(docs/FLEET.md)\n");
    return 0;
  }

  // Fleet modes (docs/FLEET.md) dispatch BEFORE check_unknown: they read
  // their own extra flags (--journal, --name, ...) and check afterwards.
  if (coordinate_port >= 0) {
    try {
      return run_coordinator_mode(args, static_cast<int>(coordinate_port));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  if (!work_for.empty()) {
    if (jobs >= 0) {
      set_global_task_graph_threads(static_cast<std::size_t>(jobs));
    }
    const std::size_t colon = work_for.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "error: --work-for expects HOST:PORT\n");
      return 2;
    }
    try {
      return run_worker_mode(args, work_for.substr(0, colon),
                             std::stoi(work_for.substr(colon + 1)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  args.check_unknown();

  // Pin the executor width before anything parallel runs: the global
  // work-stealing graph is built lazily on first use, and --jobs must win
  // that race. Thread count never changes any result — only wall-clock.
  if (jobs >= 0) {
    set_global_task_graph_threads(static_cast<std::size_t>(jobs));
  }

  // Service mode: the same process as a long-running daemon — accept jobs
  // over the wire (docs/SERVICE.md), run them on the same global executor,
  // stream live feeds. antalloc_daemon is this loop as its own binary.
  if (serve_port >= 0) {
    if (serve_port > 65535) {
      std::fprintf(stderr, "error: --serve port must be in [0, 65535]\n");
      return 2;
    }
    return run_daemon_mode(
        DaemonOptions{.port = static_cast<std::uint16_t>(serve_port)});
  }

  // Registry listings: the discoverability entry points (no run needed).
  if (list_scenarios || list_algos || list_metrics) {
    bool printed = false;
    if (list_algos) {
      std::printf("registered algorithms:\n");
      for (const auto& a : algorithm_names()) {
        std::printf("  %-20s %s%s\n", a.c_str(),
                    std::string(algorithm_description(a)).c_str(),
                    has_aggregate_kernel(a) ? "" : " [agent engine only]");
      }
      printed = true;
    }
    if (list_scenarios) {
      if (printed) std::printf("\n");
      std::printf("registered scenario families:\n");
      for (const auto& s : scenario_names()) {
        std::printf("  %-20s %s\n", s.c_str(),
                    std::string(scenario_description(s)).c_str());
      }
      printed = true;
    }
    if (list_metrics) {
      if (printed) std::printf("\n");
      std::printf("registered metrics (--metrics=a,b,c; default %s):\n",
                  default_metrics_label().c_str());
      for (const auto& m : metric_names()) {
        std::string scalars;
        for (const auto& spec : metric_scalars(m)) {
          if (!scalars.empty()) scalars += ", ";
          scalars += spec.name;
        }
        std::printf("  %-16s %s\n  %16s scalars: %s\n", m.c_str(),
                    std::string(metric_description(m)).c_str(), "",
                    scalars.c_str());
      }
    }
    return 0;
  }

  // Merge mode: reassemble a sharded campaign from a directory of shard
  // CSV/manifest pairs. Refuses mismatched or incomplete shard sets.
  if (!merge_dir.empty()) {
    const MergedCampaign merged = merge_campaign_dir(merge_dir);
    std::printf("merged %lld cells from %lld shards (config %016llx)\n\n",
                static_cast<long long>(merged.total_cells),
                static_cast<long long>(merged.shard_count),
                static_cast<unsigned long long>(merged.config_hash));
    std::printf("%s\n", merged.result.table().render().c_str());
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      out << merged.result.to_csv();
      if (out.good()) {
        std::printf("[csv written to %s]\n", csv_path.c_str());
      } else {
        std::fprintf(stderr, "error: could not write %s\n", csv_path.c_str());
        return 2;
      }
    }
    return 0;
  }

  // Replay mode: no simulation at all — open a trace, re-drive the selected
  // metrics over its RoundView stream, and print the same summary scalars
  // the live run would have. The header carries everything the recorder
  // needs (gamma, bands, warmup), so only the metric selection is an input.
  if (!replay_path.empty()) {
    TraceReader reader(replay_path);
    const TraceInfo& info = reader.info();
    const SimResult res = replay_trace(reader, split_csv(metrics_flag));
    std::printf("replayed %s: %lld rounds, n=%lld, k=%d, seed=%016llx, "
                "config %016llx, gamma=%.4f, warmup=%lld\n\n",
                replay_path.c_str(), static_cast<long long>(info.rounds),
                static_cast<long long>(info.n_ants), info.num_tasks,
                static_cast<unsigned long long>(info.seed),
                static_cast<unsigned long long>(info.config_hash), info.gamma,
                static_cast<long long>(info.warmup));
    Table summary({"metric", "value"});
    summary.add_row({"average regret (post-warmup)",
                     Table::fmt(res.post_warmup_average(), 5)});
    summary.add_row({"rounds violating the band",
                     Table::fmt(res.violation_rounds)});
    summary.add_row({"total switches", Table::fmt(res.switches)});
    for (std::size_t i = 0; i < res.metric_names.size(); ++i) {
      summary.add_row({"metric " + res.metric_names[i],
                       Table::fmt(res.metric_values[i], 6)});
    }
    std::printf("%s\n", summary.render().c_str());
    return 0;
  }

  // Sharding flags only mean something for a campaign: a worker that ran
  // with --shard but without --campaign must fail here, not produce nothing
  // and be discovered at merge time.
  if (!campaign_mode && (!shard_flag.empty() || !out_dir.empty())) {
    throw std::invalid_argument(
        "--shard/--out require --campaign=true (sharding partitions the "
        "campaign matrix; see docs/CAMPAIGNS.md)");
  }
  // Same discipline for the trace flags: each belongs to exactly one mode.
  if (!campaign_mode && !trace_dir.empty()) {
    throw std::invalid_argument(
        "--trace-dir requires --campaign=true (one trace per replicate; "
        "use --trace-out for a single run)");
  }
  if (campaign_mode && !trace_out.empty()) {
    throw std::invalid_argument(
        "--trace-out is for single runs; use --trace-dir for campaigns");
  }

  // Parse the string flags into enums once, at the boundary.
  const Engine engine = parse_engine(engine_name);
  const SamplingMode sampling = parse_sampling_mode(sampling_name);
  const InitialKind initial = parse_initial_kind(initial_name);

  // The noise axis: the same factory (and display name) the daemon builds
  // from a wire JobNoise — net/server.h's noise_spec_from is the one source.
  const NoiseSpec noise_spec = noise_spec_from(noise_flags.noise);

  if (campaign_mode) {
    // The campaign config goes through the SAME declarative JobSpec a
    // daemon submission uses (examples/job_flags.h + campaign_from_job), so
    // batch runs and daemon jobs of the same flags share their
    // campaign_config_hash and produce byte-identical rows.
    CampaignConfig campaign = campaign_from_job(parse_job_spec(args));
    campaign.trace_dir = trace_dir;
    if (!shard_flag.empty()) campaign.shard = parse_shard(shard_flag);
    StderrCampaignProgress progress;
    if (show_progress) campaign.progress = &progress;

    std::printf("campaign: %lld scenarios x %lld algos on %s, n=%lld, k=%d, "
                "%lld rounds x %lld replicates\n",
                static_cast<long long>(campaign.scenarios.size()),
                static_cast<long long>(campaign.algos.size()),
                noise_spec.name.c_str(), static_cast<long long>(n), k,
                static_cast<long long>(rounds),
                static_cast<long long>(replicates));
    if (campaign.shard.count > 1) {
      std::printf("shard %lld/%lld: %lld of %lld cells (config %016llx)\n",
                  static_cast<long long>(campaign.shard.index),
                  static_cast<long long>(campaign.shard.count),
                  static_cast<long long>(
                      shard_cell_indices(campaign_total_cells(campaign),
                                         campaign.shard)
                          .size()),
                  static_cast<long long>(campaign_total_cells(campaign)),
                  static_cast<unsigned long long>(
                      campaign_config_hash(campaign)));
    }
    std::printf("\n");
    const CampaignResult result = run_campaign(campaign);
    std::printf("%s\n", result.table().render().c_str());
    if (!out_dir.empty()) {
      const std::string manifest =
          write_campaign_shard(out_dir, campaign, result);
      std::printf("[shard written: %s]\n", manifest.c_str());
    }
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      out << result.to_csv();
      if (out.good()) {
        std::printf("[csv written to %s]\n", csv_path.c_str());
      } else {
        std::fprintf(stderr, "error: could not write %s\n", csv_path.c_str());
        return 2;
      }
    }
    return 0;
  }

  ExperimentConfig cfg;
  cfg.algo = AlgoConfig{.name = algo_name, .gamma = gamma, .epsilon = epsilon};
  cfg.engine = engine;
  cfg.n_ants = n;
  cfg.rounds = rounds;
  cfg.seed = seed;
  cfg.initial = initial;
  cfg.sampling = sampling;
  cfg.metrics = {.gamma = gamma,
                 .warmup = rounds / 2,
                 .trace_stride = std::max<Round>(1, rounds / 512),
                 .names = split_csv(metrics_flag)};

  auto fm = noise_spec.make();
  const Engine resolved = resolve_engine(engine, cfg.algo, *fm);
  const DemandSchedule schedule(demands);

  // --trace-out: tap the run's RoundView stream into a binary trace. The
  // header gets the resolved recorder options so --replay reconstructs the
  // same recorder; config_hash 0 marks an ad-hoc (non-campaign) trace.
  std::unique_ptr<TraceWriter> trace_writer;
  if (!trace_out.empty()) {
    const MetricsRecorder::Options resolved_opts = resolved_metrics(cfg);
    trace_writer = std::make_unique<TraceWriter>(
        trace_out, schedule,
        TraceMeta{.n_ants = n,
                  .seed = seed,
                  .gamma = resolved_opts.gamma,
                  .bands = resolved_opts.bands,
                  .warmup = resolved_opts.warmup});
    cfg.metrics.sink = trace_writer.get();
  }

  const SimResult res = run_experiment(cfg, *fm, schedule);
  if (trace_writer) {
    trace_writer->close();  // surfaces deferred writer-thread I/O errors
    std::printf("[trace written to %s (%lld rounds)]\n", trace_out.c_str(),
                static_cast<long long>(trace_writer->rounds_written()));
  }

  std::printf("%s on %s (%s engine): n=%lld, k=%d, d=%lld, gamma=%.4f, "
              "%lld rounds\n\n",
              algo_name.c_str(), std::string(fm->name()).c_str(),
              std::string(to_string(resolved)).c_str(),
              static_cast<long long>(n), k,
              static_cast<long long>(demand), gamma,
              static_cast<long long>(rounds));

  Table summary({"metric", "value"});
  summary.add_row({"average regret (post-warmup)",
                   Table::fmt(res.post_warmup_average(), 5)});
  summary.add_row({"theorem 3.1 band budget",
                   Table::fmt(5.0 * gamma * static_cast<double>(demands.total())
                                  + 3.0 * k, 5)});
  summary.add_row({"rounds violating the band",
                   Table::fmt(res.violation_rounds)});
  const auto conv = measure_convergence(res.trace, demands, gamma);
  summary.add_row({"first round in band",
                   conv.converged() ? Table::fmt(conv.first_in_band)
                                    : std::string("never")});
  summary.add_row({"switches/ant/round",
                   Table::fmt(static_cast<double>(res.switches) /
                                  static_cast<double>(res.rounds) /
                                  static_cast<double>(n), 4)});
  for (TaskId j = 0; j < k; ++j) {
    summary.add_row({"final load task " + std::to_string(j),
                     Table::fmt(res.final_loads[static_cast<std::size_t>(j)]) +
                         " / " + Table::fmt(demands[j])});
  }
  // The selected streaming metrics' named scalars (default set unless
  // --metrics= overrode it).
  for (std::size_t i = 0; i < res.metric_names.size(); ++i) {
    summary.add_row({"metric " + res.metric_names[i],
                     Table::fmt(res.metric_values[i], 6)});
  }
  std::printf("%s\n", summary.render().c_str());

  if (plot && res.trace.size() > 1) {
    std::printf("%s\n",
                plot_trace_deficit(res.trace, 0, gamma, demands[0]).c_str());
  }
  return 0;
}
