// End-to-end daemon loopback: submit a churn-family campaign over the wire,
// subscribe, reassemble the snapshot+delta stream, and require the rebuilt
// CampaignResult BYTE-identical to an offline run_campaign of the same spec
// — same campaign_config_hash, same Welford accumulator bits, same CSV.
// Also pins the late-subscriber replay path ("fetch" = subscribe after the
// job finished), the rejection/error paths, and — from a raw wire peer —
// the inbound sequence contract and the answer to a damaged frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

using test_util::expect_stats_identical;

// The wire twin of testing_util's churn matrix: lifecycle scenarios with
// uneven per-cell cost, small enough to finish in well under a second.
JobSpec churn_job() {
  JobSpec job;
  job.scenarios = {"task-churn", "constant"};
  job.algos = {JobAlgo{.name = "ant", .gamma = 0.05},
               JobAlgo{.name = "trivial", .gamma = 0.05}};
  job.noise = JobNoise{.kind = NoiseKind::kSigmoid, .lambda = 1.0};
  job.demands = {Count{120}, Count{80}, Count{60}};
  job.n_ants = 600;
  job.rounds = 300;
  job.seed = 42;
  job.replicates = 4;
  job.initial = InitialKind::kUniform;
  return job;
}

// Drives one submit+subscribe to completion and returns the assembler.
FeedAssembler submit_and_stream(DaemonClient& client, const JobSpec& job,
                                JobAccepted* accepted_out = nullptr) {
  client.send(Message{SubmitJob{.job = job}});
  const Message reply = client.recv();
  const auto* accepted = std::get_if<JobAccepted>(&reply);
  EXPECT_NE(accepted, nullptr)
      << (std::holds_alternative<JobRejected>(reply)
              ? std::get<JobRejected>(reply).reason
              : "unexpected reply type");
  if (accepted == nullptr) return {};
  if (accepted_out != nullptr) *accepted_out = *accepted;

  client.send(Message{Subscribe{.job_id = accepted->job_id}});
  FeedAssembler assembler;
  while (!assembler.fold(client.recv())) {
  }
  return assembler;
}

void expect_result_bit_identical(const CampaignResult& a,
                                 const CampaignResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.metrics, b.metrics);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const CampaignCell& x = a.cells[i];
    const CampaignCell& y = b.cells[i];
    EXPECT_EQ(x.flat_index, y.flat_index);
    EXPECT_EQ(x.scenario, y.scenario);
    EXPECT_EQ(x.algo, y.algo);
    EXPECT_EQ(x.noise, y.noise);
    EXPECT_EQ(x.engine, y.engine);
    ASSERT_EQ(x.metric_stats.size(), y.metric_stats.size());
    for (std::size_t k = 0; k < x.metric_stats.size(); ++k) {
      expect_stats_identical(x.metric_stats[k], y.metric_stats[k]);
    }
  }
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(DaemonFeed, WireJobReassemblesBitIdenticalToOfflineRun) {
  const JobSpec job = churn_job();
  // The offline reference: same spec through the same builder the daemon
  // uses — the single construction path that makes the comparison byte-for-
  // byte rather than approximate.
  const CampaignConfig offline_cfg = campaign_from_job(job);
  const CampaignResult offline = run_campaign(offline_cfg);

  DaemonServer server;
  server.start();
  DaemonClient client("127.0.0.1", server.port());

  JobAccepted accepted;
  FeedAssembler assembler = submit_and_stream(client, job, &accepted);

  // The daemon built the exact config a batch run builds.
  EXPECT_EQ(accepted.config_hash, campaign_config_hash(offline_cfg));
  EXPECT_EQ(accepted.total_cells, offline.cells.size());
  EXPECT_EQ(accepted.replicates, job.replicates);

  // Snapshot + deltas compose to the complete cell set, regardless of how
  // far the job had progressed when the subscription landed.
  ASSERT_TRUE(assembler.done());
  EXPECT_EQ(assembler.cells_seen(), offline.cells.size());
  ASSERT_TRUE(assembler.snapshot().has_value());
  EXPECT_EQ(assembler.snapshot()->config_hash, accepted.config_hash);
  EXPECT_EQ(assembler.snapshot()->metrics, offline.metrics);

  const JobDone& done = *assembler.job_done();
  EXPECT_EQ(done.ok, 1);
  EXPECT_EQ(done.config_hash, accepted.config_hash);
  EXPECT_EQ(done.error, "");
  EXPECT_EQ(done.result_checksum, rng::hash_string(offline.to_csv()));

  // The reassembled result is the offline result, bit for bit.
  EXPECT_TRUE(assembler.verify());
  expect_result_bit_identical(assembler.result(), offline);

  const auto stats = server.stats();
  EXPECT_EQ(stats.jobs_accepted, 1u);
  EXPECT_EQ(stats.jobs_rejected, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  server.stop();
}

TEST(DaemonFeed, LateSubscriberGetsFullReplay) {
  const JobSpec job = churn_job();
  DaemonServer server;
  server.start();

  std::uint64_t job_id = 0;
  FeedAssembler live;
  {
    DaemonClient client("127.0.0.1", server.port());
    JobAccepted accepted;
    live = submit_and_stream(client, job, &accepted);
    job_id = accepted.job_id;
  }
  ASSERT_TRUE(live.done());

  // A fresh connection subscribing AFTER completion gets the final snapshot
  // (state kDone, every cell) plus an immediate JobDone — the fetch path.
  DaemonClient fetcher("127.0.0.1", server.port());
  fetcher.send(Message{Subscribe{.job_id = job_id}});
  FeedAssembler replay;
  while (!replay.fold(fetcher.recv())) {
  }
  ASSERT_TRUE(replay.snapshot().has_value());
  EXPECT_EQ(replay.snapshot()->state, JobState::kDone);
  EXPECT_EQ(replay.snapshot()->cells.size(), replay.cells_seen());
  EXPECT_TRUE(replay.verify());
  expect_result_bit_identical(replay.result(), live.result());
  EXPECT_EQ(replay.job_done()->result_checksum,
            live.job_done()->result_checksum);
  server.stop();
}

TEST(DaemonFeed, TwoSubscribersSeeTheSameStream) {
  const JobSpec job = churn_job();
  DaemonServer server;
  server.start();

  DaemonClient submitter("127.0.0.1", server.port());
  submitter.send(Message{SubmitJob{.job = job}});
  const Message reply = submitter.recv();
  const auto& accepted = std::get<JobAccepted>(reply);

  // Second subscriber on its own connection, racing the job.
  DaemonClient watcher("127.0.0.1", server.port());
  watcher.send(Message{Subscribe{.job_id = accepted.job_id}});
  submitter.send(Message{Subscribe{.job_id = accepted.job_id}});

  FeedAssembler a;
  while (!a.fold(submitter.recv())) {
  }
  FeedAssembler b;
  while (!b.fold(watcher.recv())) {
  }
  EXPECT_TRUE(a.verify());
  EXPECT_TRUE(b.verify());
  expect_result_bit_identical(a.result(), b.result());
  server.stop();
}

TEST(DaemonFeed, UnknownScenarioIsRejectedWithReason) {
  DaemonServer server;
  server.start();
  DaemonClient client("127.0.0.1", server.port());

  JobSpec job = churn_job();
  job.scenarios = {"no-such-family"};
  client.send(Message{SubmitJob{.job = job}});
  const Message reply = client.recv();
  ASSERT_TRUE(std::holds_alternative<JobRejected>(reply));
  EXPECT_NE(std::get<JobRejected>(reply).reason.find("no-such-family"),
            std::string::npos);
  EXPECT_EQ(server.stats().jobs_rejected, 1u);
  EXPECT_EQ(server.stats().jobs_accepted, 0u);
  server.stop();
}

TEST(DaemonFeed, UnknownAlgoAndBadNumbersAreRejected) {
  DaemonServer server;
  server.start();
  DaemonClient client("127.0.0.1", server.port());

  JobSpec bad_algo = churn_job();
  bad_algo.algos = {JobAlgo{.name = "no-such-algo", .gamma = 0.05}};
  client.send(Message{SubmitJob{.job = bad_algo}});
  ASSERT_TRUE(std::holds_alternative<JobRejected>(client.recv()));

  JobSpec bad_reps = churn_job();
  bad_reps.replicates = 0;
  client.send(Message{SubmitJob{.job = bad_reps}});
  ASSERT_TRUE(std::holds_alternative<JobRejected>(client.recv()));

  JobSpec bad_metric = churn_job();
  bad_metric.metrics = {"no-such-metric"};
  client.send(Message{SubmitJob{.job = bad_metric}});
  ASSERT_TRUE(std::holds_alternative<JobRejected>(client.recv()));

  // The connection survives rejections: a good job still goes through.
  JobSpec good = churn_job();
  client.send(Message{SubmitJob{.job = good}});
  EXPECT_TRUE(std::holds_alternative<JobAccepted>(client.recv()));
  EXPECT_EQ(server.stats().jobs_rejected, 3u);
  server.stop();
}

TEST(DaemonFeed, UnknownJobIdGetsError404) {
  DaemonServer server;
  server.start();
  DaemonClient client("127.0.0.1", server.port());
  client.send(Message{Subscribe{.job_id = 9999}});
  const Message reply = client.recv();
  ASSERT_TRUE(std::holds_alternative<ErrorMsg>(reply));
  EXPECT_EQ(std::get<ErrorMsg>(reply).code, 404u);
  server.stop();
}

TEST(DaemonFeed, AdversarialNoiseTravelsTheWire) {
  // A second noise axis value through the full stack: adv noise names enter
  // campaign_config_hash via the same noise_spec_from on both sides.
  JobSpec job = churn_job();
  job.scenarios = {"constant"};
  job.noise = JobNoise{.kind = NoiseKind::kAdv,
                       .gamma_ad = 0.02,
                       .adversary = "alternating"};
  job.replicates = 2;

  const CampaignResult offline = run_campaign(campaign_from_job(job));
  ASSERT_FALSE(offline.cells.empty());
  EXPECT_EQ(offline.cells[0].noise, "adv(alternating)");

  DaemonServer server;
  server.start();
  DaemonClient client("127.0.0.1", server.port());
  FeedAssembler assembler = submit_and_stream(client, job);
  ASSERT_TRUE(assembler.done());
  EXPECT_TRUE(assembler.verify());
  expect_result_bit_identical(assembler.result(), offline);
  server.stop();
}

TEST(DaemonFeed, UnknownAdversaryIsRejected) {
  DaemonServer server;
  server.start();
  DaemonClient client("127.0.0.1", server.port());
  JobSpec job = churn_job();
  job.noise = JobNoise{.kind = NoiseKind::kAdv, .adversary = "no-such-adv"};
  client.send(Message{SubmitJob{.job = job}});
  const Message reply = client.recv();
  ASSERT_TRUE(std::holds_alternative<JobRejected>(reply));
  EXPECT_NE(std::get<JobRejected>(reply).reason.find("no-such-adv"),
            std::string::npos);
  server.stop();
}

// The inbound sequence contract: a raw peer's Subscribe at seq 0 is served,
// then its frame at seq 2 (seq 1 skipped) is refused with ErrorMsg 400 and
// the connection closes — the out-of-sequence frame is never acted on.
TEST(DaemonFeed, InboundSequenceGapGets400AndClose) {
  DaemonServer server;
  server.start();
  JobSpec job = churn_job();
  job.scenarios = {"constant"};
  std::uint64_t job_id = 0;
  {
    DaemonClient client("127.0.0.1", server.port());
    JobAccepted accepted;
    ASSERT_TRUE(submit_and_stream(client, job, &accepted).done());
    job_id = accepted.job_id;
  }

  test_util::WirePeer peer = test_util::WirePeer::connect(server.port());
  const Message subscribe{Subscribe{.job_id = job_id}};
  std::vector<std::uint8_t> bytes = encode_frame(subscribe, 0);
  const std::vector<std::uint8_t> gap = encode_frame(subscribe, 2);
  bytes.insert(bytes.end(), gap.begin(), gap.end());
  peer.write_all(bytes);

  // The finished job's replay answers the seq-0 Subscribe ...
  EXPECT_TRUE(std::holds_alternative<Snapshot>(peer.recv()));
  EXPECT_TRUE(std::holds_alternative<JobDone>(peer.recv()));
  // ... and the seq-2 one gets no second replay.
  const Message refused = peer.recv();
  ASSERT_TRUE(std::holds_alternative<ErrorMsg>(refused));
  EXPECT_EQ(std::get<ErrorMsg>(refused).code, 400u);
  EXPECT_NE(std::get<ErrorMsg>(refused).message.find("sequence gap"),
            std::string::npos);
  EXPECT_THROW(peer.recv(), ProtocolIoError);
  server.stop();
}

TEST(DaemonFeed, CorruptFrameGets400AndClose) {
  DaemonServer server;
  server.start();
  test_util::WirePeer peer = test_util::WirePeer::connect(server.port());
  std::vector<std::uint8_t> frame =
      encode_frame(Message{Subscribe{.job_id = 1}}, 0);
  frame.back() ^= 0x01;  // inside the trailing checksum word
  peer.write_all(frame);

  const Message refused = peer.recv();
  ASSERT_TRUE(std::holds_alternative<ErrorMsg>(refused));
  EXPECT_EQ(std::get<ErrorMsg>(refused).code, 400u);
  EXPECT_NE(std::get<ErrorMsg>(refused).message.find("checksum"),
            std::string::npos);
  EXPECT_THROW(peer.recv(), ProtocolIoError);
  server.stop();
}

}  // namespace
}  // namespace antalloc
