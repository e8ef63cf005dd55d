// Single-thread layer probes for traced runs. Each probe times calls into one
// layer's public functions at the workload's own shape (n, k, demands, noise,
// gamma, metric selection, result cells), repeats them and reports the
// median, so a change to that layer shows here even when the end-to-end
// number hides it. Allocation counts are exact: they come from the counting
// operator new in alloc_count.cpp, open only around the probed call.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "agent/agent_sim.h"
#include "aggregate/aggregate_sim.h"
#include "algo/registry.h"
#include "io/campaign_io.h"
#include "metrics/metric.h"
#include "net/feed.h"
#include "net/server.h"
#include "orch/lease.h"
#include "perfbench.h"
#include "sim/scenario.h"

namespace perfbench {

using namespace antalloc;

namespace {

constexpr int kReps = 5;

// Defeats dead-code elimination of probed results.
volatile std::uint64_t g_sink = 0;

template <typename F>
double median_seconds(int reps, F&& body) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body(r);
    times.push_back(seconds_since(t0));
  }
  return median_of(times);
}

AlgoConfig algo_config(const JobSpec& job, const std::string& name) {
  const JobAlgo& a = job.algos.front();
  return AlgoConfig{.name = name, .gamma = a.gamma, .epsilon = a.epsilon};
}

MetricsRecorder::Options recorder_options(const JobSpec& job, Round rounds) {
  MetricsRecorder::Options o;
  o.gamma = job.metrics_gamma > 0 ? job.metrics_gamma : job.algos.front().gamma;
  o.warmup = rounds / 2;
  o.names = job.metrics;
  return o;
}

// agent/ + algo/: single-thread run_agent_sim of the two per-ant algorithms.
void probe_agent(const ProbeInputs& in, Report& report) {
  const JobSpec& job = in.job;
  const DemandVector demands(job.demands);
  const Count n = job.n_ants;
  const auto k = static_cast<Count>(job.demands.size());
  const double budget = in.toy ? 2e5 : 4e6;  // ant-task evaluations per run
  const Round rounds =
      std::max<Round>(4, static_cast<Round>(budget / static_cast<double>(n * k)));
  const NoiseSpec noise = noise_spec_from(job.noise);
  for (const std::string name : {"threshold", "precise-adversarial"}) {
    auto run = [&](Round r) {
      const auto algo = make_agent_algorithm(algo_config(job, name));
      const auto fm = noise.make();
      AgentSimConfig cfg{.n_ants = n,
                         .rounds = r,
                         .seed = job.seed,
                         .metrics = recorder_options(job, r),
                         .sampling = job.sampling};
      g_sink = g_sink + static_cast<std::uint64_t>(
                            run_agent_sim(*algo, *fm, demands, cfg).switches);
    };
    const double s = median_seconds(3, [&](int) { run(rounds); });
    report.add("agent.ant_rounds_per_s." + name,
               static_cast<double>(n * rounds) / s, "1/s");
    std::uint64_t a1 = 0;
    std::uint64_t a2 = 0;
    {
      const AllocCounter c;
      run(rounds);
      a1 = c.count();
    }
    {
      const AllocCounter c;
      run(2 * rounds);
      a2 = c.count();
    }
    report.add("agent.allocs_per_round." + name,
               (static_cast<double>(a2) - static_cast<double>(a1)) /
                   static_cast<double>(rounds),
               "count");
  }
}

// aggregate/: single-thread run_aggregate_sim of the five kernels.
void probe_aggregate(const ProbeInputs& in, Report& report) {
  const JobSpec& job = in.job;
  const DemandVector demands(job.demands);
  const Round rounds = in.toy ? 40 : 4000;
  const NoiseSpec noise = noise_spec_from(job.noise);
  for (const std::string name :
       {"ant", "precise-sigmoid", "trivial", "sharp-threshold", "oracle"}) {
    auto run = [&](Round r) {
      const auto kernel = make_aggregate_kernel(algo_config(job, name));
      const auto fm = noise.make();
      AggregateSimConfig cfg{.n_ants = job.n_ants,
                             .rounds = r,
                             .seed = job.seed,
                             .metrics = recorder_options(job, r)};
      g_sink = g_sink + static_cast<std::uint64_t>(
                            run_aggregate_sim(*kernel, *fm, demands, cfg)
                                .switches);
    };
    const double s = median_seconds(3, [&](int) { run(rounds); });
    report.add("aggregate.rounds_per_s." + name,
               static_cast<double>(rounds) / s, "1/s");
    std::uint64_t a1 = 0;
    std::uint64_t a2 = 0;
    {
      const AllocCounter c;
      run(rounds / 2);
      a1 = c.count();
    }
    {
      const AllocCounter c;
      run(rounds);
      a2 = c.count();
    }
    report.add("aggregate.allocs_per_round." + name,
               (static_cast<double>(a2) - static_cast<double>(a1)) /
                   static_cast<double>(rounds - rounds / 2),
               "count");
  }
}

// Captures every RoundView of one run (loads copied; the demand vectors
// point into the scenario's schedule, which the capture outlives).
class RoundCapture final : public RoundSink {
 public:
  void on_round(const RoundView& v) override {
    offsets_.push_back(loads_.size());
    loads_.insert(loads_.end(), v.loads.begin(), v.loads.end());
    rounds_.push_back(v);
    if (!actives_.empty() && v.active != nullptr && *v.active == actives_.back()) {
      active_index_.push_back(actives_.size() - 1);
    } else if (v.active != nullptr) {
      actives_.push_back(*v.active);
      active_index_.push_back(actives_.size() - 1);
    } else {
      active_index_.push_back(static_cast<std::size_t>(-1));
    }
  }

  // Views over the copies, valid while this capture lives.
  std::vector<RoundView> views() const {
    std::vector<RoundView> out = rounds_;
    const std::size_t k =
        rounds_.empty() ? 0 : (loads_.size() / rounds_.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].loads = std::span<const Count>(loads_.data() + offsets_[i], k);
      out[i].active = active_index_[i] == static_cast<std::size_t>(-1)
                          ? nullptr
                          : &actives_[active_index_[i]];
    }
    return out;
  }
  std::span<const Count> last_loads() const {
    const std::size_t k = loads_.size() / rounds_.size();
    return {loads_.data() + loads_.size() - k, k};
  }

 private:
  std::vector<Count> loads_;
  std::vector<std::size_t> offsets_;
  std::vector<RoundView> rounds_;
  std::vector<ActiveSet> actives_;
  std::vector<std::size_t> active_index_;
};

// metrics/ and noise/: replay captured rounds through each metric observer;
// sample feedback at the colony's own deficits.
void probe_metrics_and_noise(const ProbeInputs& in, Report& report) {
  const JobSpec& job = in.job;
  const DemandVector demands(job.demands);
  const Round rounds = in.toy ? 40 : 4000;
  ScenarioSpec spec;
  spec.name = "single-shock";
  spec.seed = job.seed;
  const Scenario scenario = make_scenario(spec, demands, rounds);
  const NoiseSpec noise = noise_spec_from(job.noise);
  RoundCapture capture;
  {
    const auto kernel = make_aggregate_kernel(algo_config(job, "ant"));
    const auto fm = noise.make();
    AggregateSimConfig cfg{.n_ants = job.n_ants,
                           .rounds = rounds,
                           .seed = job.seed,
                           .metrics = recorder_options(job, rounds)};
    cfg.metrics.sink = &capture;
    (void)run_aggregate_sim(*kernel, *fm, scenario.schedule, cfg);
  }
  const std::vector<RoundView> views = capture.views();
  const MetricContext mctx{
      .num_tasks = static_cast<std::int32_t>(job.demands.size()),
      .n_ants = job.n_ants,
      .gamma = recorder_options(job, rounds).gamma,
      .warmup = rounds / 2};
  for (const std::string name : {"regret", "violations", "switches",
                                 "regret-split", "convergence",
                                 "oscillation"}) {
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
      const auto metric = make_metric(name, mctx);
      const auto t0 = Clock::now();
      for (const RoundView& v : views) metric->on_round(v);
      ns.push_back(seconds_since(t0) * 1e9 /
                   static_cast<double>(views.size()));
      std::vector<std::string> names;
      std::vector<double> values;
      metric->finish(names, values);
    }
    report.add("metrics.on_round_ns." + name, median_of(ns), "ns");
  }

  // The deficits the colony actually sees at the end of the capture.
  const DemandVector& last_demands = *views.back().demands;
  std::vector<double> deficits;
  std::vector<Count> demand_counts;
  const std::span<const Count> loads = capture.last_loads();
  for (std::size_t j = 0; j < loads.size(); ++j) {
    const Count d = last_demands.values()[j];
    demand_counts.push_back(d);
    deficits.push_back(static_cast<double>(d - loads[j]));
  }
  const auto fm = noise.make();
  const Count ants = in.toy ? (1 << 10) : (1 << 16);
  const double mask_s = median_seconds(kReps, [&](int r) {
    const FeedbackAccess fb(*fm, rounds + r, deficits, demand_counts, job.seed);
    std::uint64_t acc = 0;
    for (Count i = 0; i < ants; ++i) acc ^= fb.sample_lack_mask(i);
    g_sink = g_sink ^ acc;
  });
  report.add("noise.lack_mask_ns_per_ant",
             mask_s * 1e9 / static_cast<double>(ants), "ns");

  const auto k = static_cast<TaskId>(deficits.size());
  const double sample_s = median_seconds(kReps, [&](int r) {
    rng::Xoshiro256 gen(job.seed + static_cast<std::uint64_t>(r));
    std::uint64_t acc = 0;
    for (Count i = 0; i < ants; ++i) {
      const TaskId j = static_cast<TaskId>(i % k);
      acc += static_cast<std::uint64_t>(fm->sample(
          rounds, j, i, deficits[static_cast<std::size_t>(j)],
          static_cast<double>(demand_counts[static_cast<std::size_t>(j)]),
          gen));
    }
    g_sink = g_sink + acc;
  });
  report.add("noise.sample_ns.sigmoid",
             sample_s * 1e9 / static_cast<double>(ants), "ns");

  const double prob_s = median_seconds(kReps, [&](int r) {
    double acc = 0.0;
    for (Count i = 0; i < ants; ++i) {
      const TaskId j = static_cast<TaskId>(i % k);
      acc += fm->lack_probability(
          rounds + r, j, deficits[static_cast<std::size_t>(j)] + 1e-3 * r,
          static_cast<double>(demand_counts[static_cast<std::size_t>(j)]));
    }
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
  });
  report.add("noise.lack_probability_ns.sigmoid",
             prob_s * 1e9 / static_cast<double>(ants), "ns");
}

// sim/ build, io/ CSV and journal, net/ frame codec, orch/ merger and lease
// table, over the workload's own result cells.
void probe_result_paths(const ProbeInputs& in, Report& report,
                        Outcome& outcome) {
  const JobSpec& job = in.job;
  const CampaignResult& result = in.result;
  std::uint64_t hash = 0;
  report.add("sim.build_s", median_seconds(kReps, [&](int) {
               hash = campaign_config_hash(campaign_from_job(job));
             }),
             "s");
  report.add("io.to_csv_s", median_seconds(kReps, [&](int) {
               g_sink = g_sink + result.to_csv().size();
             }),
             "s");

  // CellJournal: one append per cell, flushed as the coordinator does.
  const std::string path = in.out_dir + "/probe.journal";
  std::filesystem::remove(path);
  std::vector<double> append_us;
  {
    CellJournal journal(path, hash, result.metrics, result.cells.size(),
                        job.replicates);
    for (const CampaignCell& cell : result.cells) {
      const auto t0 = Clock::now();
      journal.append(cell);
      append_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  report.add("io.journal_append_us", median_of(append_us), "us");
  report.add("io.journal_bytes",
             static_cast<double>(std::filesystem::file_size(path)), "bytes");
  std::filesystem::remove(path);

  // Frame codec: one MetricDelta per cell, encoded and decoded.
  std::vector<Message> messages;
  for (const CampaignCell& cell : result.cells) {
    messages.push_back(
        MetricDelta{.job_id = 1, .cell = cell_update_from(cell)});
  }
  std::vector<std::vector<std::uint8_t>> frames(messages.size());
  const double enc_s = median_seconds(kReps, [&](int) {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      frames[i] = encode_frame(messages[i], static_cast<std::uint32_t>(i));
    }
  });
  report.add("net.encode_ns.cell_update",
             enc_s * 1e9 / static_cast<double>(messages.size()), "ns");
  bool decoded_equal = true;
  const double dec_s = median_seconds(kReps, [&](int) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const Message m = decode_message(decode_frame(frames[i]));
      const auto* d = std::get_if<MetricDelta>(&m);
      if (d == nullptr || d->cell.flat_index != result.cells[i].flat_index) {
        decoded_equal = false;
      }
    }
  });
  report.add("net.decode_ns.cell_update",
             dec_s * 1e9 / static_cast<double>(frames.size()), "ns");
  if (decoded_equal) {
    outcome.ok();
  } else {
    outcome.fail("frame codec probe: a decoded cell differs from its source");
  }

  // IncrementalMerger: fold every cell; the merged matrix must equal the
  // source cell for cell.
  std::vector<double> add_us;
  for (int r = 0; r < kReps; ++r) {
    IncrementalMerger merger(result.cells.size(), result.metrics,
                             IncrementalMerger::Duplicates::kVerifyEqual);
    std::vector<CampaignCell> copies = result.cells;
    for (CampaignCell& cell : copies) {
      const auto t0 = Clock::now();
      merger.add(std::move(cell));
      add_us.push_back(seconds_since(t0) * 1e6);
    }
    if (r == 0) {
      const CampaignResult merged = merger.take();
      bool equal = merged.cells.size() == result.cells.size();
      for (std::size_t i = 0; equal && i < merged.cells.size(); ++i) {
        equal = cells_bit_equal(merged.cells[i], result.cells[i]);
      }
      if (equal) {
        outcome.ok();
      } else {
        outcome.fail("merger probe: merged cells differ from their source");
      }
    }
  }
  report.add("orch.merge_add_us", median_of(add_us), "us");

  // LeaseTable: one grant + complete per cell at cells_per_lease = 1.
  const std::size_t total = result.cells.size();
  const int tables = in.toy ? 50 : 2000;
  const double lease_s = median_seconds(kReps, [&](int) {
    for (int t = 0; t < tables; ++t) {
      LeaseTable table(total, LeaseOptions{.cells_per_lease = 1});
      std::int64_t now = 0;
      while (const std::optional<Lease> lease = table.grant(now)) {
        g_sink = g_sink + table.complete(lease->first_cell, ++now).size();
      }
    }
  });
  report.add("orch.lease_table_ns",
             lease_s * 1e9 / static_cast<double>(total * tables), "ns");
}

}  // namespace

void run_layer_probes(const ProbeInputs& in, Report& report,
                      Outcome& outcome) {
  probe_agent(in, report);
  probe_aggregate(in, report);
  probe_metrics_and_noise(in, report);
  probe_result_paths(in, report, outcome);
}

}  // namespace perfbench
