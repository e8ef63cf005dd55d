// P1 — Engine microbenchmarks (google-benchmark): cost per simulated round
// of the aggregate kernel (independent of n) vs the agent engine (linear in
// n), plus the samplers the aggregate engine is built on.
//
// Besides the console table, every run mirrors its numbers to
// bench_perf_engines.<machine-profile>.csv in the working directory, where
// the profile stamps OS, architecture and hardware-thread count. Checked-in
// baselines live in bench/baselines/ — later hot-path PRs diff against them
// to prove speedups (see bench/baselines/README.md).
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>

#include "aggregate/aggregate_sim.h"
#include "agent/agent_sim.h"
#include "algo/ant.h"
#include "algo/batched.h"
#include "common.h"
#include "algo/precise_sigmoid.h"
#include "algo/threshold.h"
#include "metrics/metric.h"
#include "metrics/regret.h"
#include "noise/sigmoid.h"
#include "rng/binomial.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "rng/bulk_sampler.h"
#include "rng/poisson_binomial.h"
#include "rng/xoshiro.h"

namespace {

using namespace antalloc;

void BM_BinomialSmallMean(benchmark::State& state) {
  rng::Xoshiro256 gen(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::binomial(gen, 1 << 20, 1e-5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialSmallMean);

void BM_BinomialLargeMean(benchmark::State& state) {
  rng::Xoshiro256 gen(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::binomial(gen, 1 << 20, 0.3));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialLargeMean);

void BM_PoissonBinomialPmf(benchmark::State& state) {
  const std::vector<double> p(static_cast<std::size_t>(state.range(0)), 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::poisson_binomial_pmf(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoissonBinomialPmf)->Arg(8)->Arg(64)->Arg(256);

// The join marginals the aggregate kernels need every round, over 64 fixed
// inputs of k tasks. Args: k, then 0 for grey inputs (every p in (0, 1),
// every task convolved) or 1 for all-certain ones (every p exactly 0 or 1,
// none convolved).
void BM_ChoiceMarginals(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const bool certain = state.range(1) == 1;
  constexpr std::size_t kInputs = 64;
  rng::Xoshiro256 gen(3);
  std::vector<double> p(kInputs * k);
  for (double& x : p) {
    x = certain ? static_cast<double>(gen.uniform_below(2))
                : 0.05 + 0.9 * gen.uniform();
  }
  std::vector<double> q(k);
  rng::ChoiceMarginalsWorkspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    rng::uniform_choice_marginals_into(
        std::span<const double>(p.data() + i * k, k), q, ws);
    benchmark::DoNotOptimize(q.data());
    i = (i + 1) % kInputs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChoiceMarginals)->ArgsProduct({{8}, {0, 1}});

// One round's worth of count-stream draws: what the batched path pays where
// the per-ant path pays n re-seeded generators.
void BM_BulkBinomialRound(benchmark::State& state) {
  const auto k = static_cast<std::int32_t>(state.range(0));
  const Count per_task = (Count{1} << 17) / k;
  rng::BulkSampler sampler(1, 2);
  for (auto _ : state) {
    std::int64_t total = 0;
    for (std::int32_t j = 0; j < k; ++j) {
      total += sampler.binomial(per_task, 0.02);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_BulkBinomialRound)->Arg(4)->Arg(32);

// The legacy per-ant hot loop in isolation: one full-width lack-mask draw
// per ant (hash re-seed + k Bernoulli draws).
void BM_LackMaskLoop(benchmark::State& state) {
  const auto n = static_cast<Count>(state.range(0));
  const std::int32_t k = 4;
  SigmoidFeedback fm(0.05);
  const std::vector<double> deficits(static_cast<std::size_t>(k), 5.0);
  const std::vector<Count> demand_counts(static_cast<std::size_t>(k),
                                         Count{64});
  Round t = 1;
  for (auto _ : state) {
    const FeedbackAccess fb(fm, t, deficits, demand_counts, 3);
    std::uint64_t acc = 0;
    for (Count i = 0; i < n; ++i) acc ^= fb.sample_lack_mask(i);
    benchmark::DoNotOptimize(acc);
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LackMaskLoop)->Arg(1 << 14);

// The block draw of an all-idle colony of state.range(0) ants, k = 4, every
// task at `deficit` against `demand` under sigmoid noise.
void run_lack_mask_block(benchmark::State& state, double lambda,
                         double deficit, Count demand) {
  const auto n = static_cast<Count>(state.range(0));
  const std::int32_t k = 4;
  SigmoidFeedback fm(lambda);
  const std::vector<double> deficits(static_cast<std::size_t>(k), deficit);
  const std::vector<Count> demand_counts(static_cast<std::size_t>(k), demand);
  Round t = 1;
  for (auto _ : state) {
    const FeedbackAccess fb(fm, t, deficits, demand_counts, 3);
    std::uint64_t acc = 0;
    fb.for_each_lack_mask(
        n, [](std::int64_t) { return ~0ull; },
        [&](std::int64_t, std::uint64_t lack) { acc ^= lack; });
    benchmark::DoNotOptimize(acc);
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(rng::kLackLane != nullptr ? "simd" : "per-ant fallback");
}

// The same masks drawn in blocks of 64 ants, as the agent algorithms draw
// them (FeedbackAccess::for_each_lack_mask): the SIMD lane on CPUs with AVX2
// or AVX-512, else the per-ant loop above.
void BM_LackMaskBlock(benchmark::State& state) {
  run_lack_mask_block(state, 0.05, 5.0, Count{64});
}
BENCHMARK(BM_LackMaskBlock)->Arg(1 << 14);

// A colony far below demand: at lambda 0.2 a deficit of 1000 gives p == 1
// exactly, so every cell is certain and the block draw hashes none of them
// (the first rounds of an all-idle start).
void BM_LackMaskSaturated(benchmark::State& state) {
  run_lack_mask_block(state, 0.2, 1000.0, Count{1000});
}
BENCHMARK(BM_LackMaskSaturated)->Arg(1 << 14);

// A mostly-working colony: one ant in 20 is idle and reads every task, the
// rest read only their own — the wants precise-adversarial, ant, trivial and
// precise-sigmoid pass. Args: k, then 1 for the SIMD lane or 0 for the
// per-ant fallback, which draws only the wanted cells.
void BM_LackMaskWorking(benchmark::State& state) {
  const Count n = 1 << 14;
  const auto k = static_cast<std::int32_t>(state.range(0));
  const rng::LackLane lane = state.range(1) != 0 ? rng::kLackLane : nullptr;
  if (state.range(1) != 0 && lane == nullptr) {
    state.SkipWithError("CPU has no SIMD lane");
    return;
  }
  SigmoidFeedback fm(0.05);
  const std::vector<double> deficits(static_cast<std::size_t>(k), 5.0);
  const std::vector<Count> demand_counts(static_cast<std::size_t>(k),
                                         Count{64});
  std::vector<std::uint64_t> want(static_cast<std::size_t>(n));
  for (Count i = 0; i < n; ++i) {
    want[static_cast<std::size_t>(i)] = own_task_or_all(
        i % 20 == 0 ? kIdle : static_cast<TaskId>((i * 7) % k));
  }
  std::vector<std::uint64_t> out(want.size());
  Round t = 1;
  for (auto _ : state) {
    const FeedbackAccess fb(fm, t, deficits, demand_counts, 3);
    fb.sample_lack_masks(0, want, out, lane);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LackMaskWorking)->ArgsProduct({{4, 16, 64}, {0, 1}});

// The engine's fused loads+switches diff over a double-buffered assignment
// pair (what replaced the per-round recount-from-zero).
void BM_SwitchRecount(benchmark::State& state) {
  const auto n = static_cast<Count>(state.range(0));
  const std::int32_t k = 4;
  std::vector<TaskId> prev(static_cast<std::size_t>(n));
  std::vector<TaskId> next(static_cast<std::size_t>(n));
  rng::Xoshiro256 gen(9);
  for (std::size_t i = 0; i < prev.size(); ++i) {
    prev[i] = static_cast<TaskId>(
                  gen.uniform_below(static_cast<std::uint64_t>(k) + 1)) -
              1;
    next[i] = static_cast<TaskId>(
                  gen.uniform_below(static_cast<std::uint64_t>(k) + 1)) -
              1;
  }
  std::vector<Count> loads(static_cast<std::size_t>(k), 0);
  for (const TaskId a : prev) {
    if (a != kIdle) ++loads[static_cast<std::size_t>(a)];
  }
  for (auto _ : state) {
    std::int64_t switches = 0;
    for (std::size_t i = 0; i < prev.size(); ++i) {
      const TaskId was = prev[i];
      const TaskId now = next[i];
      if (now == was) continue;
      ++switches;
      if (was != kIdle) --loads[static_cast<std::size_t>(was)];
      if (now != kIdle) ++loads[static_cast<std::size_t>(now)];
    }
    benchmark::DoNotOptimize(switches);
    benchmark::DoNotOptimize(loads.data());
    prev.swap(next);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SwitchRecount)->Arg(1 << 14)->Arg(1 << 17);

void BM_AggregateAntRound(benchmark::State& state) {
  const auto k = static_cast<std::int32_t>(state.range(0));
  const Count n = Count{1} << 20;
  const DemandVector demands = uniform_demands(k, n / (4 * k));
  AntAggregate kernel(AntParams{.gamma = 0.02});
  kernel.reset(Allocation::all_idle(n, k), 3);
  const SigmoidFeedback fm(0.01);
  Round t = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.step(t++, demands, fm));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AggregateAntRound)->Arg(1)->Arg(8)->Arg(32);

void BM_AggregatePreciseSigmoidRound(benchmark::State& state) {
  const Count n = Count{1} << 20;
  const DemandVector demands = uniform_demands(8, n / 32);
  PreciseSigmoidAggregate kernel({.gamma = 0.05, .epsilon = 0.25});
  kernel.reset(Allocation::all_idle(n, 8), 3);
  const SigmoidFeedback fm(0.01);
  Round t = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.step(t++, demands, fm));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AggregatePreciseSigmoidRound);

// MetricsRecorder::record_round alone, over 64 fixed load rows scattered
// around the demands (deficits of both signs, some tasks outside their
// band). Args: k, then 0 for the default metric selection or 1 for every
// registered metric plus both per-task families.
void BM_RecordRound(benchmark::State& state) {
  const auto k = static_cast<std::int32_t>(state.range(0));
  constexpr std::size_t kRows = 64;
  const DemandVector demands = uniform_demands(k, 1000);
  rng::Xoshiro256 gen(5);
  std::vector<Count> loads(kRows * static_cast<std::size_t>(k));
  for (Count& w : loads) w = 940 + static_cast<Count>(gen.uniform_below(121));
  MetricsRecorder::Options opts{.gamma = 0.01};
  if (state.range(1) == 1) {
    opts.names = metric_names();
    opts.names.push_back("oscillation-per-task@" + std::to_string(k));
    opts.names.push_back("convergence-per-task@" + std::to_string(k));
  }
  MetricsRecorder recorder(k, Count{1} << 16, opts);
  Round t = 1;
  std::size_t row = 0;
  for (auto _ : state) {
    recorder.record_round(RoundView{
        .t = t++,
        .loads = std::span<const Count>(
            loads.data() + row * static_cast<std::size_t>(k),
            static_cast<std::size_t>(k)),
        .demands = &demands});
    benchmark::ClobberMemory();
    row = (row + 1) % kRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordRound)->ArgsProduct({{8, 64}, {0, 1}});

// arg0 = colony size, arg1 = sampling mode (0 per-ant, 1 batched). The
// batched arm drives the runner directly, the same work run_agent_sim's fast
// path does per round. Units follow each arm's cost model: a per-ant round
// is O(n·k), so that arm reports ant-rounds/s; a batched round is
// O(k + moves), so that arm reports rounds/s.
void BM_AgentAntRound(benchmark::State& state) {
  const auto n = static_cast<Count>(state.range(0));
  const bool batched = state.range(1) != 0;
  const std::int32_t k = 4;
  AntAgent algo(AntParams{.gamma = 0.05});
  SigmoidFeedback fm(0.05);
  std::vector<TaskId> assignment(static_cast<std::size_t>(n), kIdle);
  const std::vector<double> deficits(static_cast<std::size_t>(k), 5.0);
  const std::vector<Count> demand_counts(static_cast<std::size_t>(k),
                                         n / (4 * k));
  Round t = 1;
  if (batched) {
    BatchedAgentRunner* runner = algo.batched_runner();
    runner->reset(n, k, assignment, 3);
    std::vector<Count> loads(static_cast<std::size_t>(k), 0);
    std::vector<double> p_lack(static_cast<std::size_t>(k), 0.0);
    const std::uint64_t mask = ActiveSet::all(k).mask64();
    for (auto _ : state) {
      for (std::int32_t j = 0; j < k; ++j) {
        p_lack[static_cast<std::size_t>(j)] = fm.lack_probability(
            t, j, deficits[static_cast<std::size_t>(j)],
            static_cast<double>(demand_counts[static_cast<std::size_t>(j)]));
      }
      benchmark::DoNotOptimize(runner->step(t, p_lack, mask, loads));
      ++t;
    }
  } else {
    algo.reset(n, k, assignment, 3);
    std::vector<TaskId> next(assignment.size(), kIdle);
    for (auto _ : state) {
      const FeedbackAccess fb(fm, t, deficits, demand_counts, 3);
      algo.step(t, fb, assignment, next);
      assignment.swap(next);
      ++t;
    }
  }
  state.SetLabel(batched ? "batched" : "per-ant");
  state.SetItemsProcessed(batched ? state.iterations()
                                  : state.iterations() * n);
}
BENCHMARK(BM_AgentAntRound)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 17}, {0, 1}});

// The response-threshold baseline's per-ant round at k = 4 under the noise
// of BM_LackMaskBlock: every ant draws every task, then its 64-ant tile
// updates the stimuli and decides (algo/threshold.h). Reports ant-rounds/s,
// so its ratio to BM_LackMaskBlock is the share of the round the draw takes.
void BM_AgentThresholdRound(benchmark::State& state) {
  const auto n = static_cast<Count>(state.range(0));
  const std::int32_t k = 4;
  ThresholdAgent algo(ThresholdParams{});
  SigmoidFeedback fm(0.05);
  std::vector<TaskId> assignment(static_cast<std::size_t>(n), kIdle);
  std::vector<TaskId> next(assignment.size(), kIdle);
  const std::vector<double> deficits(static_cast<std::size_t>(k), 5.0);
  const std::vector<Count> demand_counts(static_cast<std::size_t>(k),
                                         Count{64});
  algo.reset(n, k, assignment, 3);
  Round t = 1;
  for (auto _ : state) {
    const FeedbackAccess fb(fm, t, deficits, demand_counts, 3);
    algo.step(t, fb, assignment, next);
    assignment.swap(next);
    benchmark::DoNotOptimize(assignment.data());
    benchmark::ClobberMemory();
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AgentThresholdRound)->Arg(1 << 14);

// Campaign scheduling throughput: arg0 = cells, arg1 = replicates per cell,
// arg2 = scheduler (0 = the pre-task-graph sequential cell loop — one
// run_replicated_experiment per cell, barrier at every cell boundary;
// 1 = the flat work-stealing run_campaign). Both arms run the identical
// (and deliberately small) simulation workload on the same global executor,
// so the ratio between them isolates pure scheduling: with replicates below
// the worker count, arm 0 idles most of the machine at each boundary while
// arm 1 keeps every worker fed from the flat (cell × replicate) space.
// items_per_second = completed trials per second.
void BM_CampaignSchedule(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  const auto reps = state.range(1);
  const bool flat = state.range(2) == 1;

  const DemandVector base({Count{160}, Count{96}});
  CampaignConfig cfg;
  for (std::size_t c = 0; c < cells; ++c) {
    ScenarioSpec spec;
    spec.name = "constant";
    spec.initial = InitialKind::kUniform;
    cfg.scenarios.push_back(make_scenario(spec, base, 256));
  }
  cfg.algos = {AlgoConfig{.name = "ant", .gamma = 0.05}};
  cfg.noises = {{"sigmoid",
                 [] { return std::make_unique<SigmoidFeedback>(1.0); }}};
  cfg.n_ants = 512;
  cfg.rounds = 256;
  cfg.seed = 7;
  cfg.replicates = reps;

  // The sequential arm's per-cell configs, planned outside the timing loop
  // (mirroring the flat arm, whose planning phase is not what is measured).
  std::vector<ExperimentConfig> ecfgs;
  if (!flat) {
    const std::vector<std::string> families =
        resolve_metric_names(cfg.metrics.names);
    for (std::size_t si = 0; si < cells; ++si) {
      ExperimentConfig ecfg;
      ecfg.algo = cfg.algos[0];
      ecfg.n_ants = cfg.n_ants;
      ecfg.rounds = cfg.rounds;
      ecfg.seed = rng::hash_words(cfg.seed, si, 0, 0);
      ecfg.initial = cfg.scenarios[si].initial;
      ecfg.metrics = cfg.metrics;
      ecfg.metrics.names = families;
      if (ecfg.metrics.warmup == 0) ecfg.metrics.warmup = cfg.rounds / 2;
      ecfg.engine = Engine::kAggregate;
      ecfgs.push_back(std::move(ecfg));
    }
  }

  for (auto _ : state) {
    if (flat) {
      const CampaignResult result = run_campaign(cfg);
      benchmark::DoNotOptimize(result.cells.size());
    } else {
      double sink = 0.0;
      for (std::size_t si = 0; si < cells; ++si) {
        const auto results = run_replicated_experiment(
            ecfgs[si], cfg.noises[0].make, cfg.scenarios[si].schedule, reps);
        RunningStats stats;
        for (const auto& r : results) stats.add(r.post_warmup_average());
        sink += stats.mean();
      }
      benchmark::DoNotOptimize(sink);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells) * reps);
}
BENCHMARK(BM_CampaignSchedule)
    ->ArgsProduct({{16, 32}, {2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Minimal CSV reporter (the library's own CSVReporter is deprecated): one
// row per benchmark with the metrics baseline diffs need. Rows are buffered
// and the file is written only in Finalize, and only when at least one
// benchmark actually reported — a filtered run that matches nothing must
// not clobber a previously captured baseline CSV with an empty file.
class BaselineCsvReporter : public benchmark::BenchmarkReporter {
 public:
  BaselineCsvReporter(std::string path, std::string profile)
      : path_(std::move(path)), profile_(std::move(profile)) {}

  bool ReportContext(const Context& /*context*/) override { return true; }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const auto counter = run.counters.find("items_per_second");
      const double items = counter != run.counters.end()
                               ? static_cast<double>(counter->second.value)
                               : 0.0;
      std::ostringstream row;
      row << profile_ << ',' << run.benchmark_name() << ',' << run.iterations
          << ',' << run.GetAdjustedRealTime() << ','
          << run.GetAdjustedCPUTime() << ',' << items << '\n';
      rows_ += row.str();
    }
  }

  void Finalize() override {
    if (rows_.empty()) return;
    std::ofstream out(path_);
    out << "machine_profile,benchmark,iterations,real_ns,cpu_ns,"
           "items_per_second\n"
        << rows_;
    written_ = out.good();
  }

  // Whether a non-empty CSV was written (checked for the final message).
  bool written() const { return written_; }

 private:
  std::string path_;
  std::string profile_;
  std::string rows_;
  bool written_ = false;
};

// Forwards every report to the console AND the baseline CSV (the library
// only accepts a separate file reporter together with --benchmark_out).
class TeeReporter : public benchmark::BenchmarkReporter {
 public:
  TeeReporter(benchmark::BenchmarkReporter* a, benchmark::BenchmarkReporter* b)
      : a_(a), b_(b) {}

  bool ReportContext(const Context& context) override {
    // The console reporter governs whether the run proceeds; the CSV side
    // degrades to console-only on failure instead of aborting everything.
    const bool ok_a = a_->ReportContext(context);
    b_->ReportContext(context);
    return ok_a;
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    a_->ReportRuns(runs);
    b_->ReportRuns(runs);
  }
  void Finalize() override {
    a_->Finalize();
    b_->Finalize();
  }

 private:
  benchmark::BenchmarkReporter* a_;
  benchmark::BenchmarkReporter* b_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string profile = bench::machine_profile();
  benchmark::AddCustomContext("machine_profile", profile);
  const std::string csv_path = "bench_perf_engines." + profile + ".csv";
  BaselineCsvReporter csv(csv_path, profile);
  benchmark::ConsoleReporter console;
  TeeReporter tee(&console, &csv);
  benchmark::RunSpecifiedBenchmarks(&tee);
  benchmark::Shutdown();
  if (csv.written()) {
    std::printf("[csv written to %s]\n", csv_path.c_str());
  } else {
    std::fprintf(stderr, "[no csv written: no benchmarks ran or %s was not "
                 "writable]\n", csv_path.c_str());
  }
  return 0;
}
