// End-to-end fleet orchestration (src/orch/): an in-process
// CoordinatorServer with run_worker threads over real loopback sockets.
// The invariant every test pins is the tentpole contract — the merged
// CampaignResult::to_csv() is BYTE-identical to an unsharded run_campaign
// of the same spec, no matter how many workers served the fleet, died
// mid-lease, or straggled past their deadlines. Also pins the journal
// resume path (a restarted coordinator re-leases only the missing cells),
// the coordinator's reply codes on bad traffic, and — against a scripted
// coordinator — how a worker handles a revoked lease.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "orch/coordinator.h"
#include "orch/worker.h"
#include "parallel/thread_pool.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

// 3 scenarios x 2 algos x 1 noise = 6 cells, uneven per-cell cost (the
// churn family re-plans at every lifecycle change point) — enough cells for
// real lease churn, small enough to run the whole battery in seconds.
JobSpec fleet_job() {
  JobSpec job;
  job.scenarios = {"task-churn", "constant", "single-shock"};
  job.algos = {JobAlgo{.name = "ant", .gamma = 0.05},
               JobAlgo{.name = "trivial", .gamma = 0.05}};
  job.noise = JobNoise{.kind = NoiseKind::kSigmoid, .lambda = 1.0};
  job.demands = {Count{120}, Count{80}, Count{60}};
  job.n_ants = 600;
  job.rounds = 300;
  job.seed = 42;
  job.replicates = 2;
  job.initial = InitialKind::kUniform;
  return job;
}

CoordinatorOptions fleet_opts(const JobSpec& job,
                              std::size_t cells_per_lease = 2) {
  CoordinatorOptions opts;
  opts.port = 0;
  opts.job = job;
  opts.lease.cells_per_lease = cells_per_lease;
  return opts;
}

// Runs run_worker on its own thread, capturing the report or the exception.
struct WorkerThread {
  std::optional<WorkerReport> report;
  std::string error;
  std::thread thread;

  WorkerThread(std::uint16_t port, WorkerOptions opts) {
    thread = std::thread([this, port, opts] {
      try {
        report = run_worker("127.0.0.1", port, opts);
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
  }
  ~WorkerThread() {
    if (thread.joinable()) thread.join();
  }
  void join() { thread.join(); }
};

TEST(OrchFleet, ThreeWorkersMergeBitIdenticalToUnsharded) {
  const JobSpec job = fleet_job();
  const CampaignResult offline = run_campaign(campaign_from_job(job));

  CoordinatorServer server(fleet_opts(job));
  server.start();
  EXPECT_EQ(server.total_cells(), offline.cells.size());

  // A watcher subscribes BEFORE any worker exists: the live-feed path that
  // makes `antalloc_client watch` work against a coordinator unmodified.
  DaemonClient watcher("127.0.0.1", server.port());
  watcher.send(Message{Subscribe{.job_id = kCoordinatorJobId}});

  {
    WorkerThread w1(server.port(), WorkerOptions{.name = "w1"});
    WorkerThread w2(server.port(), WorkerOptions{.name = "w2"});
    WorkerThread w3(server.port(), WorkerOptions{.name = "w3"});
    ASSERT_TRUE(server.wait_done()) << server.error();
    w1.join();
    w2.join();
    w3.join();
    EXPECT_EQ(w1.error, "");
    EXPECT_EQ(w2.error, "");
    EXPECT_EQ(w3.error, "");
    // Every cell was shipped exactly once across the healthy fleet.
    ASSERT_TRUE(w1.report && w2.report && w3.report);
    EXPECT_EQ(w1.report->cells_shipped + w2.report->cells_shipped +
                  w3.report->cells_shipped,
              offline.cells.size());
    EXPECT_FALSE(w1.report->died);
  }

  EXPECT_EQ(server.result().to_csv(), offline.to_csv());
  EXPECT_EQ(server.config_hash(), campaign_config_hash(campaign_from_job(job)));

  const auto stats = server.stats();
  EXPECT_EQ(stats.cells_folded, offline.cells.size());
  EXPECT_EQ(stats.duplicates_verified, 0u);
  EXPECT_EQ(stats.cells_recovered, 0u);
  EXPECT_GE(stats.leases_granted, 3u);  // 6 cells / 2 per lease

  // The watcher's stream reassembles the same bytes.
  FeedAssembler assembler;
  while (!assembler.fold(watcher.recv())) {
  }
  EXPECT_TRUE(assembler.verify());
  EXPECT_EQ(assembler.result().to_csv(), offline.to_csv());
  EXPECT_EQ(assembler.job_done()->result_checksum,
            rng::hash_string(offline.to_csv()));
  server.stop();
}

TEST(OrchFleet, KilledWorkerCellsAreReissuedAndMergeExact) {
  const JobSpec job = fleet_job();
  const CampaignResult offline = run_campaign(campaign_from_job(job));

  CoordinatorServer server(fleet_opts(job));
  server.start();

  // The dying worker ships 3 cells then drops its connection — an odd count
  // against 2-cell leases, so it dies MID-lease with one cell outstanding.
  WorkerThread dying(server.port(),
                     WorkerOptions{.name = "dying", .fail_after_cells = 3});
  dying.join();
  ASSERT_TRUE(dying.report.has_value()) << dying.error;
  EXPECT_TRUE(dying.report->died);
  EXPECT_EQ(dying.report->cells_shipped, 3u);

  // The rescuer finishes whatever the table still holds.
  WorkerThread rescuer(server.port(), WorkerOptions{.name = "rescuer"});
  ASSERT_TRUE(server.wait_done()) << server.error();
  rescuer.join();
  EXPECT_EQ(rescuer.error, "");

  EXPECT_EQ(server.result().to_csv(), offline.to_csv());
  const auto stats = server.stats();
  EXPECT_EQ(stats.cells_folded, offline.cells.size());
  // The dying worker's unfinished lease went back to the table.
  EXPECT_GE(stats.leases_released, 1u);
  server.stop();
}

TEST(OrchFleet, StragglerDeadlineRevokesAndStillMergesExact) {
  // A straggler that never finishes: a bare wire peer takes the first lease
  // and never answers it. Its deadline (the 1ms floor, no medians yet) must
  // pass, the coordinator must revoke the lease to that peer and reissue
  // the cells, and the workers that join afterwards still merge to the
  // offline bytes. Deadlines stay aggressive (floor 1ms, factor 1), so the
  // real workers' own leases may be revoked too; late results then fold as
  // verified duplicates, which the merged bytes must not care about.
  JobSpec job = fleet_job();
  job.rounds = 1500;

  CoordinatorOptions opts = fleet_opts(job);
  opts.lease.min_deadline_ms = 1;
  opts.lease.straggler_factor = 1.0;
  CoordinatorServer server(opts);
  server.start();

  DaemonClient straggler("127.0.0.1", server.port());
  straggler.send(Message{LeaseRequest{.worker = "straggler"}});
  const Message grant = straggler.recv();
  ASSERT_TRUE(std::holds_alternative<LeaseGrant>(grant));
  const LeaseGrant& lease = std::get<LeaseGrant>(grant);
  ASSERT_EQ(lease.done, 0);
  ASSERT_GE(lease.cell_count, 1u);
  // The coordinator's deadline sweep is the only thing that can answer now.
  const Message revoked = straggler.recv();
  ASSERT_TRUE(std::holds_alternative<LeaseRevoked>(revoked));
  EXPECT_EQ(std::get<LeaseRevoked>(revoked).lease_id, lease.lease_id);

  WorkerThread w1(server.port(), WorkerOptions{.name = "w1"});
  WorkerThread w2(server.port(), WorkerOptions{.name = "w2"});
  ASSERT_TRUE(server.wait_done()) << server.error();
  w1.join();
  w2.join();
  EXPECT_EQ(w1.error, "");
  EXPECT_EQ(w2.error, "");

  const CampaignResult offline = run_campaign(campaign_from_job(job));
  EXPECT_EQ(server.result().to_csv(), offline.to_csv());
  const auto stats = server.stats();
  EXPECT_EQ(stats.cells_folded, offline.cells.size());
  // Counted by the sweep that revoked the straggler, which ran on the poll
  // thread before it served any worker.
  EXPECT_GE(stats.leases_expired, 1u);
  server.stop();
}

TEST(OrchFleet, RevokedLeaseStopsTheWorkerAndItAsksForFreshWork) {
  // The worker's side of a revocation, with no deadline involved: a
  // scripted coordinator grants one lease over every cell and revokes it as
  // soon as the first cell result arrives, which proves the worker is
  // computing that very lease. The revocation must stop the run at the next
  // replicate boundary, be counted as such, and send the worker back for a
  // fresh lease, which the coordinator answers with done. The lease holds
  // 16 single-replicate cells on two executor threads, so the cells still
  // to run when the first one ships take far longer than the revocation's
  // trip over loopback.
  JobSpec job = fleet_job();
  job.scenarios = {"constant",   "single-shock", "staircase",
                   "day-night",  "ramp-drift",   "seasonal",
                   "task-birth", "task-churn"};
  job.replicates = 1;
  job.rounds = 200'000;
  const CampaignConfig cfg = campaign_from_job(job);
  const std::size_t total = campaign_total_cells(cfg);
  ASSERT_EQ(total, 16u);

  // Declared before the coordinator so that, should an assertion end the
  // test early, the coordinator's socket closes first and the worker
  // thread sees EOF instead of blocking its join. The coordinator is a
  // scripted loopback peer that puts the real worker through an exact
  // sequence of frames.
  ThreadPool pool(1);
  std::optional<WorkerThread> worker;
  test_util::WireListener listener;
  worker.emplace(listener.port(), WorkerOptions{.name = "w", .pool = &pool});
  test_util::WirePeer coordinator = listener.accept();
  ASSERT_TRUE(std::holds_alternative<LeaseRequest>(coordinator.recv()));
  const std::uint64_t lease_id = 7;
  coordinator.send(Message{LeaseGrant{.lease_id = lease_id,
                                      .config_hash = campaign_config_hash(cfg),
                                      .first_cell = 0,
                                      .cell_count = total,
                                      .deadline_ms = 60'000,
                                      .job = job}});

  const Message first = coordinator.recv();
  ASSERT_TRUE(std::holds_alternative<CellResult>(first));
  EXPECT_EQ(std::get<CellResult>(first).lease_id, lease_id);
  coordinator.send(Message{LeaseRevoked{.lease_id = lease_id,
                                        .reason = "straggler"}});

  // Cells already folding may still ship; then comes the fresh request.
  std::size_t shipped = 1;
  Message next = coordinator.recv();
  while (const auto* late = std::get_if<CellResult>(&next)) {
    EXPECT_EQ(late->lease_id, lease_id);
    ++shipped;
    next = coordinator.recv();
  }
  ASSERT_TRUE(std::holds_alternative<LeaseRequest>(next));
  EXPECT_LT(shipped, total);  // the revocation cut the lease short
  coordinator.send(Message{LeaseGrant{.done = 1, .job = {}}});

  worker->join();
  EXPECT_EQ(worker->error, "");
  ASSERT_TRUE(worker->report.has_value());
  EXPECT_EQ(worker->report->leases_revoked, 1u);
  EXPECT_EQ(worker->report->leases_completed, 0u);
  EXPECT_EQ(worker->report->cells_shipped, shipped);
  EXPECT_FALSE(worker->report->died);
}

TEST(OrchFleet, JournalResumeReleasesOnlyMissingCells) {
  const JobSpec job = fleet_job();
  const CampaignResult offline = run_campaign(campaign_from_job(job));
  const std::string dir = test_util::make_temp_dir("orch_journal");
  const std::string journal = dir + "/fleet.journal";

  // Phase 1: a worker ships 2 cells and dies; the coordinator is stopped
  // (operator kill) with the campaign incomplete but the journal flushed.
  {
    CoordinatorOptions opts = fleet_opts(job);
    opts.journal_path = journal;
    CoordinatorServer server(opts);
    server.start();
    WorkerThread dying(server.port(),
                       WorkerOptions{.name = "dying", .fail_after_cells = 2});
    dying.join();
    ASSERT_TRUE(dying.report.has_value()) << dying.error;
    // The two shipped cells land asynchronously; wait for both folds.
    for (int i = 0; i < 2000 && server.stats().cells_folded < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server.stats().cells_folded, 2u);
    server.stop();
    EXPECT_FALSE(server.wait_done());
    EXPECT_NE(server.error().find("stopped"), std::string::npos);
  }

  // Phase 2: a fresh coordinator on the same journal recovers the folded
  // cells without leasing them, and a fresh worker computes only the rest.
  {
    CoordinatorOptions opts = fleet_opts(job);
    opts.journal_path = journal;
    CoordinatorServer server(opts);
    EXPECT_EQ(server.stats().cells_recovered, 2u);
    server.start();
    WorkerThread finisher(server.port(), WorkerOptions{.name = "finisher"});
    ASSERT_TRUE(server.wait_done()) << server.error();
    finisher.join();
    ASSERT_TRUE(finisher.report.has_value()) << finisher.error;
    EXPECT_EQ(finisher.report->cells_shipped, offline.cells.size() - 2);

    EXPECT_EQ(server.result().to_csv(), offline.to_csv());
    EXPECT_EQ(server.stats().cells_folded, offline.cells.size() - 2);
    server.stop();
  }

  // Phase 3: the completed journal alone rebuilds the result — a restart
  // after the final fold needs no workers at all.
  {
    CoordinatorOptions opts = fleet_opts(job);
    opts.journal_path = journal;
    CoordinatorServer server(opts);
    EXPECT_EQ(server.stats().cells_recovered, offline.cells.size());
    ASSERT_TRUE(server.wait_done());
    EXPECT_EQ(server.result().to_csv(), offline.to_csv());
  }

  // A journal must never seed a DIFFERENT campaign: same path, new seed.
  {
    JobSpec other = job;
    other.seed = 1234;
    CoordinatorOptions opts = fleet_opts(other);
    opts.journal_path = journal;
    EXPECT_THROW(CoordinatorServer{opts}, std::runtime_error);
  }
}

TEST(OrchFleet, WrongConfigHashResultIsRefused) {
  const JobSpec job = fleet_job();
  CoordinatorServer server(fleet_opts(job));
  server.start();

  DaemonClient probe("127.0.0.1", server.port());
  probe.send(Message{LeaseRequest{.worker = "probe"}});
  const Message reply = probe.recv();
  const auto* grant = std::get_if<LeaseGrant>(&reply);
  ASSERT_NE(grant, nullptr);
  EXPECT_EQ(grant->done, 0);
  EXPECT_EQ(grant->config_hash, server.config_hash());
  EXPECT_EQ(grant->cell_count, 2u);

  // A well-shaped cell under a skewed config hash: refused with 409, never
  // folded — a worker built from different code cannot contribute numbers.
  CellResult bogus;
  bogus.lease_id = grant->lease_id;
  bogus.config_hash = grant->config_hash ^ 1;
  bogus.cell.flat_index = grant->first_cell;
  bogus.cell.scenario = "task-churn";
  bogus.cell.algo = "ant";
  bogus.cell.noise = "sigmoid(lambda=1.000)";
  bogus.cell.stats.resize(3);  // default metrics: regret/violations/switches
  probe.send(Message{bogus});
  const Message err = probe.recv();
  const auto* error = std::get_if<ErrorMsg>(&err);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, 409u);
  EXPECT_EQ(server.stats().cells_folded, 0u);

  // Subscribing to anything but the coordinator's single job is a 404.
  DaemonClient other("127.0.0.1", server.port());
  other.send(Message{Subscribe{.job_id = 99}});
  const Message nak = other.recv();
  ASSERT_TRUE(std::holds_alternative<ErrorMsg>(nak));
  EXPECT_EQ(std::get<ErrorMsg>(nak).code, 404u);
  server.stop();
}

TEST(OrchFleet, CoordinatorRejectsUnbuildableJob) {
  JobSpec job = fleet_job();
  job.scenarios = {"no-such-family"};
  EXPECT_THROW(CoordinatorServer{fleet_opts(job)}, std::invalid_argument);
}

}  // namespace
}  // namespace antalloc
