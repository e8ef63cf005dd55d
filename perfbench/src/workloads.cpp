// The four workloads and their main loops.
//
// Every workload is a declarative JobSpec built by the CLI's own flag parser
// (examples/job_flags.h) and instantiated through campaign_from_job, the path
// antalloc_cli, the daemon and the fleet all share. Each operation gets its
// own job seed, hash(workload seed, operation index), so one --seed gives the
// same inputs on every run.
//
// A traced run interleaves untraced and traced operations (odd indices are
// traced), so the tracing overhead is measured in the same run, then runs
// the single-thread layer probes (probes.cpp).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "job_flags.h"
#include "net/client.h"
#include "net/server.h"
#include "orch/coordinator.h"
#include "orch/worker.h"
#include "parallel/task_graph.h"
#include "parallel/thread_pool.h"
#include "perfbench.h"
#include "rng/splitmix.h"

namespace perfbench {

using namespace antalloc;

namespace {

constexpr int kDaemonClients = 2;
constexpr int kFleetWorkers = 2;
constexpr int kSetupSamples = 31;
constexpr int kSampledCells = 2;
constexpr std::size_t kKept = 4;  // results kept for the sampled checks
constexpr std::uint64_t kProbeIndexBase = 1'000'000;

// Per-layer observations keyed by per-layer metric name; a traced run
// reports the median of each key's samples.
class Samples {
 public:
  void add(const std::string& key, double v) {
    const std::lock_guard<std::mutex> lock(mutex_);
    map_[key].push_back(v);
  }
  std::map<std::string, std::vector<double>> all() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return map_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> map_;
};

// Whose numbers an operation's observations are: a main-loop operation
// feeds every layer's samples, a service probe (a daemon job or a fleet
// campaign run only to measure net/ or orch/ for a workload whose main loop
// does not use them) feeds only its own layer's.
enum class Role { kMain, kProbe };

struct Shape {
  std::vector<std::string> flags;
  std::vector<std::string> toy_flags;
  Engine engine = Engine::kAggregate;  // every cell must resolve to this
};

const char* const kKernelAlgos =
    "--algos=ant,precise-sigmoid,trivial,sharp-threshold,oracle";
const char* const kKernelMetrics =
    "--metrics=regret,violations,switches,regret-split,convergence,"
    "oscillation";

// The toy shape keeps each workload's algorithms and engine path but shrinks
// everything else, for the self-check.
std::vector<std::string> toy(std::string algos) {
  return {"--scenarios=constant,single-shock", std::move(algos), "--n=512",
          "--k=4", "--demand=64", "--rounds=40", "--replicates=2"};
}

Shape workload_shape(const std::string& w) {
  if (w == "peragent") {
    const char* algos = "--algos=threshold,precise-adversarial";
    return {{algos, "--n=4096", "--k=4", "--demand=1000", "--rounds=150",
             "--replicates=2"},
            toy(algos),
            Engine::kAgent};
  }
  if (w == "kernel") {
    std::vector<std::string> t = toy(kKernelAlgos);
    t.push_back(kKernelMetrics);
    return {{kKernelAlgos, "--n=65536", "--k=8", "--demand=4000",
             "--rounds=1000", "--replicates=16", kKernelMetrics},
            t,
            Engine::kAggregate};
  }
  if (w == "daemon") {
    const char* algos = "--algos=ant,trivial";
    return {{algos, "--n=16384", "--k=4", "--demand=2000", "--rounds=2000",
             "--replicates=4"},
            toy(algos),
            Engine::kAggregate};
  }
  if (w == "fleet") {
    return {{kKernelAlgos, "--n=65536", "--k=8", "--demand=4000",
             "--rounds=2000", "--replicates=4"},
            toy(kKernelAlgos),
            Engine::kAggregate};
  }
  throw std::invalid_argument("unknown workload '" + w + "'");
}

// The CLI's flag parser, fed a fixed flag list: sigmoid noise at lambda 0.2,
// --engine=auto and the CLI's default gamma unless a flag says otherwise.
JobSpec job_from_flags(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "antalloc_perfbench");
  flags.push_back("--noise=sigmoid");
  flags.push_back("--lambda=0.2");
  flags.push_back("--engine=auto");
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  Args args(static_cast<int>(argv.size()), argv.data());
  JobSpec job = parse_job_spec(args);
  args.check_unknown();
  return job;
}

std::int64_t total_replicates(const JobSpec& job) {
  return static_cast<std::int64_t>(job.scenarios.size() * job.algos.size()) *
         job.replicates;
}

std::int64_t replicate_rounds(const JobSpec& job) {
  return total_replicates(job) * job.rounds;
}

// Structural check of one result against its job: every cell present, on
// the workload's engine, with one sample per replicate in every statistic.
std::string check_result(const CampaignResult& r, const JobSpec& job,
                         Engine engine) {
  const std::size_t cells = job.scenarios.size() * job.algos.size();
  if (r.cells.size() != cells) {
    return "result has " + std::to_string(r.cells.size()) + " cells, job has " +
           std::to_string(cells);
  }
  const std::size_t scalars = r.scalar_columns().size();
  for (const CampaignCell& c : r.cells) {
    const std::string where = "cell " + std::to_string(c.flat_index) + " (" +
                              c.scenario + ", " + c.algo + ")";
    if (c.engine != engine) {
      return where + " ran on the " + std::string(to_string(c.engine)) +
             " engine, the workload expects " +
             std::string(to_string(engine));
    }
    if (c.metric_stats.size() != scalars) {
      return where + " has a wrong statistic count";
    }
    for (const RunningStats& s : c.metric_stats) {
      if (s.count() != job.replicates) {
        return where + " folded " + std::to_string(s.count()) +
               " replicates, job has " + std::to_string(job.replicates);
      }
    }
  }
  return "";
}

// The parallel/ tail of one campaign: the time from the first fold after
// which fewer replicates remain than the machine has CPUs (so some CPU must
// idle) to the campaign's end.
class TailClock {
 public:
  void start(std::int64_t total_replicates, std::size_t cpus,
             Clock::time_point now) {
    total_ = total_replicates;
    cpus_ = static_cast<std::int64_t>(cpus);
    observe(0, now);
  }
  void observe(std::int64_t replicates_done, Clock::time_point now) {
    if (!tail_start_ && total_ - replicates_done < cpus_) tail_start_ = now;
  }
  double tail_s(Clock::time_point end) const {
    return tail_start_ ? seconds_between(*tail_start_, end) : 0.0;
  }

 private:
  std::int64_t total_ = 0;
  std::int64_t cpus_ = 0;
  std::optional<Clock::time_point> tail_start_;
};

// Progress observer of traced in-process campaigns (calls are serialized by
// the campaign).
class ProgressTap final : public CampaignProgress {
 public:
  explicit ProgressTap(TailClock& tail) : tail_(tail) {}
  void on_cell_done(const Update& u) override {
    tail_.observe(u.replicates_done, Clock::now());
  }

 private:
  TailClock& tail_;
};

// Receives a subscription's frames into `feed` until JobDone, counting what
// the client sees: frames, exact wire bytes (traced only: re-encoding costs),
// the first cell's arrival, the gaps between cell deltas and the tail.
struct FeedObs {
  std::int64_t frames = 0;
  std::int64_t bytes = 0;
  double first_cell_s = -1.0;
  std::vector<double> gaps_s;
  TailClock tail;
  Clock::time_point done;
};

void count_frame(const Message& m, bool traced, FeedObs& obs) {
  ++obs.frames;
  if (traced) {
    obs.bytes += static_cast<std::int64_t>(encode_frame(m, 0).size());
  }
}

void stream_feed(DaemonClient& client, FeedAssembler& feed,
                 Clock::time_point t0, bool traced, std::size_t cpus,
                 FeedObs& obs) {
  std::optional<Clock::time_point> last_cell;
  while (true) {
    const Message m = client.recv();
    const auto now = Clock::now();
    count_frame(m, traced, obs);
    std::size_t cells = 0;
    if (std::holds_alternative<MetricDelta>(m)) cells = 1;
    if (const auto* s = std::get_if<Snapshot>(&m)) {
      cells = s->cells.size();
      obs.tail.start(static_cast<std::int64_t>(s->cells_total) * s->replicates,
                     cpus, now);
      obs.tail.observe(s->replicates_done, now);
    }
    if (const auto* p = std::get_if<ProgressDelta>(&m)) {
      obs.tail.observe(p->replicates_done, now);
    }
    if (cells > 0) {
      if (obs.first_cell_s < 0) obs.first_cell_s = seconds_between(t0, now);
      if (last_cell && std::holds_alternative<MetricDelta>(m)) {
        obs.gaps_s.push_back(seconds_between(*last_cell, now));
      }
      last_cell = now;
    }
    if (feed.fold(m)) {
      obs.done = now;
      return;
    }
  }
}

void add_engine_counts(Samples& samples, const CampaignResult& r,
                       const JobSpec& job) {
  std::int64_t agent = 0;
  std::int64_t aggregate = 0;
  for (const CampaignCell& c : r.cells) {
    (c.engine == Engine::kAgent ? agent : aggregate) += 1;
  }
  samples.add("sim.cells", static_cast<double>(r.cells.size()));
  samples.add("sim.replicates",
              static_cast<double>(r.cells.size()) *
                  static_cast<double>(job.replicates));
  samples.add("sim.cells.agent", static_cast<double>(agent));
  samples.add("sim.cells.aggregate", static_cast<double>(aggregate));
}

class Ctx {
 public:
  Ctx(const RunOptions& o, Outcome& out)
      : opts(o), outcome(out), cpus(online_cpus()) {
    const Shape shape = workload_shape(o.workload);
    base = job_from_flags(o.toy ? shape.toy_flags : shape.flags);
    engine = shape.engine;
  }

  const RunOptions& opts;
  Outcome& outcome;
  const std::size_t cpus;
  JobSpec base;
  Engine engine = Engine::kAggregate;
  Tracer tracer;
  Samples samples;

  JobSpec op_job(const JobSpec& shape, std::uint64_t index) const {
    JobSpec job = shape;
    // 48 bits keep the seed exact through every integer path it crosses.
    job.seed = rng::hash_words(opts.seed, index, 0x7065726662ull) >> 16;
    return job;
  }
  Tracer* tracer_for(std::uint64_t index) {
    return opts.trace && index % 2 == 1 ? &tracer : nullptr;
  }

  // Timed-phase bookkeeping (guarded: daemon clients finish concurrently).
  void finish_op(double wall, bool traced, const JobSpec& job) {
    const std::lock_guard<std::mutex> lock(mutex_);
    walls_[traced ? 1 : 0].push_back(wall);
    ++ops_;
    rounds_ += replicate_rounds(job);
    last_done_ = Clock::now();
  }
  // Only the first few results are kept for the sampled checks, so memory
  // (and peak_rss_mb) does not grow with the number of operations a run
  // completes.
  void keep(const JobSpec& job, CampaignResult result) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (kept_.size() < kKept) kept_.emplace_back(job, std::move(result));
  }
  void keep_checksum(const JobSpec& job, std::uint64_t checksum) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (checksums_.size() < kKept) checksums_.emplace_back(job, checksum);
  }

  std::vector<double> walls(bool traced) const { return walls_[traced]; }
  std::int64_t ops() const { return ops_; }
  std::int64_t rounds() const { return rounds_; }
  Clock::time_point last_done() const { return last_done_; }
  std::vector<std::pair<JobSpec, CampaignResult>>& kept() { return kept_; }
  const std::vector<std::pair<JobSpec, std::uint64_t>>& checksums() const {
    return checksums_;
  }

 private:
  std::mutex mutex_;
  std::vector<double> walls_[2];
  std::int64_t ops_ = 0;
  std::int64_t rounds_ = 0;
  Clock::time_point last_done_ = Clock::now();
  std::vector<std::pair<JobSpec, CampaignResult>> kept_;
  std::vector<std::pair<JobSpec, std::uint64_t>> checksums_;
};

// Runs `body`, turning any exception into a failed operation.
template <typename F>
void guarded(Ctx& ctx, const char* what, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    ctx.outcome.fail(std::string(what) + ": " + e.what());
  }
}

// In-process campaign. -----------------------------------------------------------

void inprocess_op(Ctx& ctx, std::uint64_t index, bool timed) {
  Tracer* tr = ctx.tracer_for(index);
  const JobSpec job = ctx.op_job(ctx.base, index);
  ThreadTicks ticks0;
  if (tr != nullptr) ticks0 = read_thread_ticks();
  const auto t0 = Clock::now();
  std::string error;
  CampaignResult result;
  TailClock tail;
  tail.start(total_replicates(job), ctx.cpus, t0);
  ProgressTap tap(tail);
  Clock::time_point ran;
  {
    const Span op(tr, "op", index);
    CampaignConfig cfg;
    {
      const Span s(tr, "sim.build", index);
      cfg = campaign_from_job(job);
      (void)campaign_config_hash(cfg);
    }
    if (tr != nullptr) cfg.progress = &tap;
    {
      const Span s(tr, "sim.run_campaign", index);
      result = run_campaign(cfg);
    }
    ran = Clock::now();
    const Span s(tr, "verify", index);
    error = check_result(result, job, ctx.engine);
    const Span c(tr, "io.to_csv", index);
    (void)rng::hash_string(result.to_csv());
  }
  const double wall = seconds_since(t0);
  if (!error.empty()) {
    ctx.outcome.fail(error);
    return;
  }
  ctx.outcome.ok();
  if (tr != nullptr) {
    ctx.samples.add("parallel.threads_observed",
                    static_cast<double>(
                        threads_that_ran(ticks0, read_thread_ticks())));
    ctx.samples.add("parallel.tail_s", tail.tail_s(ran));
    add_engine_counts(ctx.samples, result, job);
  }
  if (timed) {
    ctx.finish_op(wall, tr != nullptr, job);
    ctx.keep(job, std::move(result));
  }
}

// Daemon job. --------------------------------------------------------------------

void daemon_op(Ctx& ctx, DaemonClient& client, const JobSpec& job,
               std::uint64_t index, Tracer* tr, Role role, bool timed) {
  const bool traced = tr != nullptr;
  FeedObs obs;
  FeedAssembler feed;
  const auto t0 = Clock::now();
  double submit_rtt = 0.0;
  double feed_s = 0.0;
  double verify_s = 0.0;
  bool verified = false;
  {
    const Span op(tr, "op", index);
    JobAccepted accepted;
    {
      const Span s(tr, "net.submit", index);
      const Message submit{SubmitJob{.job = job}};
      count_frame(submit, traced, obs);
      client.send(submit);
      const Message reply = client.recv();
      count_frame(reply, traced, obs);
      if (const auto* r = std::get_if<JobRejected>(&reply)) {
        ctx.outcome.fail("job rejected: " + r->reason);
        return;
      }
      const auto* a = std::get_if<JobAccepted>(&reply);
      if (a == nullptr) {
        ctx.outcome.fail("SubmitJob answered with an unexpected message");
        return;
      }
      accepted = *a;
    }
    const auto t_sub = Clock::now();
    submit_rtt = seconds_between(t0, t_sub);
    {
      const Span s(tr, "net.feed", index);
      const Message sub{Subscribe{.job_id = accepted.job_id}};
      count_frame(sub, traced, obs);
      client.send(sub);
      stream_feed(client, feed, t0, traced, ctx.cpus, obs);
    }
    const auto t_fed = Clock::now();
    feed_s = seconds_between(t_sub, t_fed);
    const Span s(tr, "net.verify", index);
    verified = feed.verify() && feed.job_done()->ok == 1;
    verify_s = seconds_since(t_fed);
  }
  const double wall = seconds_since(t0);
  if (!verified) {
    ctx.outcome.fail("daemon job " + std::to_string(index) +
                     ": reassembled result does not match the JobDone "
                     "checksum");
    return;
  }
  ctx.outcome.ok();
  if (traced) {
    ctx.samples.add("net.submit_rtt_s", submit_rtt);
    ctx.samples.add("net.feed_s", feed_s);
    ctx.samples.add("net.verify_s", verify_s);
    ctx.samples.add("net.first_cell_s", obs.first_cell_s);
    ctx.samples.add("net.frames_per_job", static_cast<double>(obs.frames));
    ctx.samples.add("net.bytes_per_job", static_cast<double>(obs.bytes));
    if (role == Role::kMain) {
      ctx.samples.add("parallel.tail_s", obs.tail.tail_s(obs.done));
      const CampaignResult r = feed.result();
      const std::string error = check_result(r, job, ctx.engine);
      if (!error.empty()) ctx.outcome.fail(error);
      add_engine_counts(ctx.samples, r, job);
    }
  }
  if (timed) {
    ctx.finish_op(wall, traced, job);
    ctx.keep_checksum(job, feed.job_done()->result_checksum);
  }
}

// Fleet campaign. ----------------------------------------------------------------

struct Watch {
  FeedAssembler feed;
  FeedObs obs;
  bool verified = false;
  std::string error;
};

struct WorkerRun {
  std::optional<WorkerReport> report;
  std::string error;
};

void fleet_op(Ctx& ctx, const JobSpec& job, std::uint64_t index, Tracer* tr,
              Role role, bool timed) {
  const bool traced = tr != nullptr;
  const std::string journal =
      ctx.opts.out_dir + "/fleet-" + std::to_string(index) + ".journal";
  std::filesystem::remove(journal);
  // Read at the start and right after the campaign completes, while the
  // coordinator's, workers' and watcher's threads still exist.
  ThreadTicks ticks0;
  ThreadTicks ticks1;
  if (traced && role == Role::kMain) ticks0 = read_thread_ticks();
  const auto t0 = Clock::now();

  Watch watch;
  WorkerRun runs[kFleetWorkers];
  std::string error;
  CampaignResult merged;
  CoordinatorServer::Stats stats;
  {
    const Span op(tr, "op", index);
    const std::uint64_t op_id = tr != nullptr ? op.id() : 0;
    // Declared before the server: on an exception the server's destructor
    // stops it first, which unblocks these threads, and only then are they
    // joined.
    std::vector<std::jthread> threads;
    CoordinatorOptions co;
    co.job = job;
    co.lease.cells_per_lease = 1;
    co.journal_path = journal;
    std::optional<CoordinatorServer> server;
    {
      const Span s(tr, "orch.start", index);
      server.emplace(co);
      server->start();
    }
    const std::uint16_t port = server->port();
    threads.emplace_back([&, port] {
      const Span s(tr, "net.watch", index, op_id);
      try {
        DaemonClient client("127.0.0.1", port);
        const Message sub{Subscribe{.job_id = kCoordinatorJobId}};
        count_frame(sub, traced, watch.obs);
        client.send(sub);
        stream_feed(client, watch.feed, t0, traced, ctx.cpus, watch.obs);
        const Span v(tr, "net.verify", index);
        watch.verified =
            watch.feed.verify() && watch.feed.job_done()->ok == 1;
      } catch (const std::exception& e) {
        watch.error = e.what();
      }
    });
    for (int w = 0; w < kFleetWorkers; ++w) {
      threads.emplace_back([&, w, port] {
        const Span s(tr, "orch.run_worker", index, op_id);
        try {
          runs[w].report = run_worker(
              "127.0.0.1", port,
              WorkerOptions{.name = "perfbench-" + std::to_string(w)});
        } catch (const std::exception& e) {
          runs[w].error = e.what();
        }
      });
    }
    bool done = false;
    {
      const Span s(tr, "orch.wait_done", index);
      done = server->wait_done();
    }
    if (traced && role == Role::kMain) ticks1 = read_thread_ticks();
    if (!done) {
      error = "coordinator failed: " + server->error();
      server->stop();
    }
    for (std::jthread& t : threads) t.join();
    if (done) {
      const Span s(tr, "orch.verify", index);
      merged = server->result();
      if (!watch.verified) {
        error = "watcher reassembly failed" +
                (watch.error.empty() ? "" : ": " + watch.error);
      } else if (rng::hash_string(merged.to_csv()) !=
                 watch.feed.job_done()->result_checksum) {
        error = "merged result differs from the watcher's JobDone checksum";
      } else {
        error = check_result(merged, job, ctx.engine);
      }
    }
    stats = server->stats();
  }
  const double wall = seconds_since(t0);
  std::filesystem::remove(journal);
  for (const WorkerRun& r : runs) {
    if (!r.error.empty()) error = "worker failed: " + r.error;
  }
  if (!error.empty()) {
    ctx.outcome.fail("fleet campaign " + std::to_string(index) + ": " + error);
    return;
  }
  ctx.outcome.ok();
  if (traced) {
    std::uint64_t shipped = 0;
    for (const WorkerRun& r : runs) shipped += r.report->cells_shipped;
    ctx.samples.add("orch.leases_granted",
                    static_cast<double>(stats.leases_granted));
    ctx.samples.add("orch.leases_released",
                    static_cast<double>(stats.leases_released));
    ctx.samples.add("orch.leases_expired",
                    static_cast<double>(stats.leases_expired));
    ctx.samples.add("orch.duplicates_verified",
                    static_cast<double>(stats.duplicates_verified));
    ctx.samples.add("orch.cells_shipped", static_cast<double>(shipped));
    ctx.samples.add("orch.cells_folded",
                    static_cast<double>(stats.cells_folded));
    ctx.samples.add("orch.useful_cell_share",
                    shipped == 0 ? 0.0
                                 : static_cast<double>(stats.cells_folded) /
                                       static_cast<double>(shipped));
    ctx.samples.add("orch.cell_interarrival_s", median_of(watch.obs.gaps_s));
    if (role == Role::kMain) {
      ctx.samples.add("parallel.threads_observed",
                      static_cast<double>(threads_that_ran(ticks0, ticks1)));
      ctx.samples.add("parallel.tail_s",
                      watch.obs.tail.tail_s(watch.obs.done));
      add_engine_counts(ctx.samples, merged, job);
    }
  }
  if (timed) {
    ctx.finish_op(wall, traced, job);
    ctx.keep(job, std::move(merged));
  }
}

// Set-up. -------------------------------------------------------------------------

// One set-up sample: build and hash the config, start and warm a fresh
// executor of the default width, and start the workload's server or
// coordinator. Teardown is not timed.
double setup_sample(Ctx& ctx, std::uint64_t index) {
  const JobSpec job = ctx.op_job(ctx.base, index);
  const std::string journal =
      ctx.opts.out_dir + "/setup-" + std::to_string(index) + ".journal";
  std::filesystem::remove(journal);
  const auto t0 = Clock::now();
  CampaignConfig cfg = campaign_from_job(job);
  (void)campaign_config_hash(cfg);
  auto graph = std::make_unique<TaskGraph>(0);
  graph->run_indexed(0, static_cast<std::int64_t>(graph->size()) * 4, 1,
                     [](std::int64_t) {});
  std::optional<DaemonServer> daemon;
  std::optional<CoordinatorServer> coordinator;
  if (ctx.opts.workload == "daemon") {
    daemon.emplace();
    daemon->start();
  } else if (ctx.opts.workload == "fleet") {
    CoordinatorOptions co;
    co.job = job;
    co.lease.cells_per_lease = 1;
    co.journal_path = journal;
    coordinator.emplace(co);
    coordinator->start();
  }
  const double dt = seconds_since(t0);
  if (coordinator) coordinator->stop();
  if (daemon) daemon->stop();
  coordinator.reset();
  std::filesystem::remove(journal);
  return dt;
}

// Sampled checks (after the timed phase). -------------------------------------------

// Re-runs kSampledCells seed-chosen cells of a seed-chosen kept result as an
// explicit-cell ShardSpec on a 1-worker pool and requires every RunningStats
// state bit-equal: the thread-count and sharding invariance contract.
void verify_sampled_cells(Ctx& ctx) {
  auto& kept = ctx.kept();
  if (kept.empty()) {
    ctx.outcome.fail("no completed operation to sample");
    return;
  }
  const std::uint64_t pick = rng::hash_words(ctx.opts.seed, 0x73616d70ull, 0);
  const auto& [job, result] = kept[pick % kept.size()];
  std::vector<std::size_t> cells;
  for (std::uint64_t i = 1; cells.size() < kSampledCells &&
                            cells.size() < result.cells.size();
       ++i) {
    const std::size_t c = rng::hash_words(pick, i, 0) % result.cells.size();
    if (std::find(cells.begin(), cells.end(), c) == cells.end()) {
      cells.push_back(c);
    }
  }
  std::sort(cells.begin(), cells.end());
  guarded(ctx, "sampled-cell re-run", [&] {
    ThreadPool one(1);
    CampaignConfig cfg = campaign_from_job(job);
    cfg.shard.cells = cells;
    cfg.pool = &one;
    const CampaignResult part = run_campaign(cfg);
    if (part.cells.size() != cells.size()) {
      ctx.outcome.fail("explicit-cell re-run returned the wrong cell count");
      return;
    }
    for (const CampaignCell& c : part.cells) {
      if (cells_bit_equal(c, result.cells.at(c.flat_index))) {
        ctx.outcome.ok();
      } else {
        ctx.outcome.fail("cell " + std::to_string(c.flat_index) +
                         " differs from its 1-worker explicit-cell re-run");
      }
    }
  });
}

// A seed-chosen daemon job's JobDone checksum must equal an in-process
// run_campaign of the same JobSpec. Returns that result for the probes.
std::optional<CampaignResult> verify_daemon_checksum(Ctx& ctx) {
  const auto& sums = ctx.checksums();
  if (sums.empty()) {
    ctx.outcome.fail("no completed daemon job to sample");
    return std::nullopt;
  }
  const std::uint64_t pick = rng::hash_words(ctx.opts.seed, 0x73756dull, 0);
  const auto& [job, checksum] = sums[pick % sums.size()];
  std::optional<CampaignResult> out;
  guarded(ctx, "in-process re-run", [&] {
    CampaignResult r = run_campaign(campaign_from_job(job));
    if (rng::hash_string(r.to_csv()) == checksum) {
      ctx.outcome.ok();
    } else {
      ctx.outcome.fail("daemon CSV checksum differs from an in-process run");
    }
    out = std::move(r);
  });
  return out;
}

// Main loops. ----------------------------------------------------------------------

struct LoopWindow {
  Clock::time_point start;
  double cpu0 = 0.0;
  std::uint64_t steals0 = 0;
  ThreadTicks ticks0;
};

LoopWindow open_window(const Ctx& ctx) {
  LoopWindow w;
  if (ctx.opts.trace) w.ticks0 = read_thread_ticks();
  w.cpu0 = process_cpu_seconds();
  w.steals0 = global_task_graph().steals();
  w.start = Clock::now();
  return w;
}

void run_sequential(Ctx& ctx, const LoopWindow& w,
                    void (*op)(Ctx&, std::uint64_t, bool)) {
  for (std::uint64_t i = 1; seconds_since(w.start) < ctx.opts.seconds; ++i) {
    guarded(ctx, "operation", [&] { op(ctx, i, true); });
  }
}

void fleet_main_op(Ctx& ctx, std::uint64_t index, bool timed) {
  fleet_op(ctx, ctx.op_job(ctx.base, index), index, ctx.tracer_for(index),
           Role::kMain, timed);
}

void run_daemon_clients(Ctx& ctx, const LoopWindow& w, std::uint16_t port) {
  std::atomic<std::uint64_t> next{1};
  std::vector<std::jthread> clients;
  for (int c = 0; c < kDaemonClients; ++c) {
    clients.emplace_back([&] {
      std::unique_ptr<DaemonClient> client;
      while (seconds_since(w.start) < ctx.opts.seconds) {
        const std::uint64_t i = next.fetch_add(1);
        try {
          if (!client) client = std::make_unique<DaemonClient>("127.0.0.1", port);
          daemon_op(ctx, *client, ctx.op_job(ctx.base, i), i,
                    ctx.tracer_for(i), Role::kMain, true);
        } catch (const std::exception& e) {
          // A dropped or damaged connection: count it and reconnect.
          ctx.outcome.fail(std::string("daemon connection: ") + e.what());
          client.reset();
        }
      }
    });
  }
}

// Scaled-down copy of the workload's job for the service probes.
JobSpec probe_job(const JobSpec& base) {
  JobSpec job = base;
  job.rounds = std::min<Round>(job.rounds, 50);
  return job;
}

void daemon_probe(Ctx& ctx) {
  guarded(ctx, "daemon probe", [&] {
    DaemonServer server;
    server.start();
    DaemonClient client("127.0.0.1", server.port());
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::uint64_t index = kProbeIndexBase + i;
      daemon_op(ctx, client, ctx.op_job(probe_job(ctx.base), index), index,
                &ctx.tracer, Role::kProbe, false);
    }
    const DaemonServer::Stats stats = server.stats();
    ctx.samples.add("net.evictions", static_cast<double>(stats.evictions));
    ctx.samples.add("net.jobs_rejected",
                    static_cast<double>(stats.jobs_rejected));
    server.stop();
  });
}

void fleet_probe(Ctx& ctx) {
  guarded(ctx, "fleet probe", [&] {
    const std::uint64_t index = kProbeIndexBase + 100;
    fleet_op(ctx, ctx.op_job(probe_job(ctx.base), index), index, &ctx.tracer,
             Role::kProbe, false);
  });
}

void emit_end_to_end(Ctx& ctx, const std::vector<double>& setups,
                     const LoopWindow& w, Report& report) {
  const std::vector<double> walls = ctx.walls(false);
  const double window = seconds_between(w.start, ctx.last_done());
  const auto n = static_cast<double>(walls.size());
  report.add("wall_s", median_of(walls), "s");
  report.add("job_latency_p90_s", quantile_of(walls, 0.9), "s");
  report.add("setup_s", median_of(setups), "s");
  report.add("rounds_per_s", static_cast<double>(ctx.rounds()) / window,
             "1/s");
  report.add("jobs_per_s", static_cast<double>(ctx.ops()) / window, "1/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");

  char line[256];
  std::snprintf(line, sizeof(line),
                "operations: %zu timed in %.3f s; latency p50 %.6f s, p90 "
                "%.6f s",
                walls.size(), window, median_of(walls),
                quantile_of(walls, 0.9));
  report.note(line);
  // The highest percentile that still has at least ten samples beyond it.
  const double q = std::floor((1.0 - 10.0 / n) * 100.0) / 100.0;
  if (q >= 0.5) {
    std::snprintf(line, sizeof(line),
                  "latency p%.0f %.6f s (the highest percentile with >= 10 "
                  "of the %zu samples beyond it)",
                  q * 100.0, quantile_of(walls, q), walls.size());
  } else {
    std::snprintf(line, sizeof(line),
                  "%zu samples: no percentile above the median has 10 "
                  "samples beyond it, so p90 rests on fewer",
                  walls.size());
  }
  report.note(line);
  if (ctx.engine == Engine::kAgent) {
    std::snprintf(line, sizeof(line),
                  "ant_rounds_per_s: %.6g (per-ant engine: rounds_per_s x n "
                  "= %lld ants)",
                  static_cast<double>(ctx.rounds()) / window *
                      static_cast<double>(ctx.base.n_ants),
                  static_cast<long long>(ctx.base.n_ants));
    report.note(line);
  }
}

void emit_per_layer(Ctx& ctx, Report& report) {
  const std::vector<double> untraced = ctx.walls(false);
  const std::vector<double> traced = ctx.walls(true);
  report.add("trace.overhead_share",
             median_of(traced) / median_of(untraced) - 1.0, "share");
  for (const auto& [key, values] : ctx.samples.all()) {
    report.add(key, median_of(values), per_layer_unit(key));
  }
}

// A probe that failed (already counted as a failed operation) leaves its
// metrics without samples; they read 0 so the run still reports.
void fill_missing(Report& report) {
  for (const MetricSpec& m : per_layer_catalog()) {
    bool present = false;
    for (const MetricValue& v : report.metrics()) present |= v.name == m.name;
    if (!present) {
      report.note(std::string("no samples for ") + m.name + "; reported as 0");
      report.add(m.name, 0.0, m.unit);
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"peragent", "kernel",
                                                 "daemon", "fleet"};
  return names;
}

bool cells_bit_equal(const CampaignCell& a, const CampaignCell& b) {
  if (a.flat_index != b.flat_index || a.scenario != b.scenario ||
      a.algo != b.algo || a.noise != b.noise || a.engine != b.engine ||
      a.metric_stats.size() != b.metric_stats.size()) {
    return false;
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t i = 0; i < a.metric_stats.size(); ++i) {
    const RunningStats::State x = a.metric_stats[i].state();
    const RunningStats::State y = b.metric_stats[i].state();
    if (x.count != y.count || bits(x.mean) != bits(y.mean) ||
        bits(x.m2) != bits(y.m2) || bits(x.min) != bits(y.min) ||
        bits(x.max) != bits(y.max)) {
      return false;
    }
  }
  return true;
}

bool run_workload(const RunOptions& opts, Report& report, Outcome& outcome,
                  std::string* error) {
  std::optional<Ctx> holder;
  try {
    holder.emplace(opts, outcome);
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
  Ctx& ctx = *holder;
  const std::string& w = opts.workload;

  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    try {
      setups.push_back(setup_sample(ctx, kProbeIndexBase + 200 + i));
    } catch (const std::exception& e) {
      *error = std::string("set-up failed: ") + e.what();
      return false;
    }
  }
  global_task_graph().run_indexed(
      0, static_cast<std::int64_t>(global_task_graph().size()) * 4, 1,
      [](std::int64_t) {});

  std::optional<DaemonServer> daemon;
  if (w == "daemon") {
    try {
      daemon.emplace();
      daemon->start();
    } catch (const std::exception& e) {
      *error = std::string("daemon start failed: ") + e.what();
      return false;
    }
  }

  // Warm-up operation (untimed, still verified).
  guarded(ctx, "warm-up", [&] {
    if (w == "daemon") {
      DaemonClient client("127.0.0.1", daemon->port());
      daemon_op(ctx, client, ctx.op_job(ctx.base, 0), 0, nullptr, Role::kMain,
                false);
    } else if (w == "fleet") {
      fleet_main_op(ctx, 0, false);
    } else {
      inprocess_op(ctx, 0, false);
    }
  });

  const LoopWindow window = open_window(ctx);
  if (w == "daemon") {
    run_daemon_clients(ctx, window, daemon->port());
  } else {
    run_sequential(ctx, window, w == "fleet" ? fleet_main_op : inprocess_op);
  }
  const double loop_s = seconds_since(window.start);
  if (opts.trace) {
    ctx.samples.add("parallel.cpu_util",
                    (process_cpu_seconds() - window.cpu0) /
                        (loop_s * static_cast<double>(ctx.cpus)));
    ctx.samples.add("parallel.steals",
                    static_cast<double>(global_task_graph().steals() -
                                        window.steals0) /
                        static_cast<double>(std::max<std::int64_t>(
                            ctx.ops(), 1)));
    if (w == "daemon") {
      ctx.samples.add("parallel.threads_observed",
                      static_cast<double>(threads_that_ran(
                          window.ticks0, read_thread_ticks())));
    }
  }
  if (daemon) {
    const DaemonServer::Stats stats = daemon->stats();
    for (std::uint64_t i = 0; i < stats.evictions; ++i) {
      outcome.fail("daemon evicted a slow subscriber");
    }
    if (opts.trace) {
      ctx.samples.add("net.evictions", static_cast<double>(stats.evictions));
      ctx.samples.add("net.jobs_rejected",
                      static_cast<double>(stats.jobs_rejected));
    }
    daemon->stop();
  }
  if (ctx.ops() == 0) {
    // Every operation failed: still a result, one that says so.
    outcome.fail("no operation completed in the timed phase");
    report.note("no operation completed: every metric reads 0");
    for (const MetricSpec& m :
         opts.trace ? per_layer_catalog() : end_to_end_catalog()) {
      report.add(m.name, 0.0, m.unit);
    }
    return true;
  }

  ProbeInputs probe;
  probe.job = ctx.base;
  probe.toy = opts.toy;
  probe.out_dir = opts.out_dir;
  if (w == "daemon") {
    if (auto r = verify_daemon_checksum(ctx)) probe.result = std::move(*r);
  } else {
    verify_sampled_cells(ctx);
    if (!ctx.kept().empty()) probe.result = ctx.kept().back().second;
  }

  if (!opts.trace) {
    emit_end_to_end(ctx, setups, window, report);
    return true;
  }

  if (w != "daemon") daemon_probe(ctx);
  if (w != "fleet") fleet_probe(ctx);
  if (!probe.result.cells.empty()) run_layer_probes(probe, report, outcome);
  emit_per_layer(ctx, report);

  const std::vector<SpanRecord> spans = ctx.tracer.spans();
  report.add("trace.spans", static_cast<double>(spans.size()), "count");
  fill_missing(report);
  const std::string nesting = Tracer::check_nesting(spans);
  if (!nesting.empty()) outcome.fail("span nesting: " + nesting);
  const std::string path = opts.out_dir + "/spans-" + w + "-seed" +
                           std::to_string(opts.seed) + ".jsonl";
  try {
    ctx.tracer.write_jsonl(path);
    report.note("spans written to " + path);
  } catch (const std::exception& e) {
    report.note(std::string("spans not written: ") + e.what());
  }
  char line[256];
  report.note("self time by span (s): name count total self");
  for (const Tracer::NameTotals& t : Tracer::self_times(spans)) {
    std::snprintf(line, sizeof(line), "  %-22s %8llu %10.4f %10.4f",
                  t.name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_s, t.self_s);
    report.note(line);
  }
  return true;
}

}  // namespace perfbench
