// The fleet coordinator: one campaign, many worker processes, exactly-once
// merged numbers.
//
// A CoordinatorServer owns a single campaign (a declarative JobSpec, the
// same wire shape the daemon accepts) and carves its flat cell space into
// LEASES (orch/lease.h): a worker connects with the ordinary protocol
// handshake, sends LeaseRequest, and gets a contiguous cell range with a
// deadline. Completed cells come back as CellResult frames — the feed's
// CellUpdate encoding, full Welford states — and fold into an
// IncrementalMerger the moment they land. First completion wins: a
// straggler past its deadline is revoked (LeaseRevoked) and its cells
// reissued, so the SAME cell may arrive twice — the merger verifies the
// duplicate bit-equal to the first copy and drops it (Duplicates::
// kVerifyEqual). A retry can confirm a number, never change one, which is
// why the merged CampaignResult::to_csv() is byte-identical to an
// unsharded run of the same spec no matter how many workers died,
// straggled, or raced (tests/orch_fleet_test.cpp and the CI fleet-smoke
// job both cmp it).
//
// ## Fault model
//
//   worker death     — its connection drops; every lease it held is
//                      released and the unfinished cells return to pending
//                      for the next LeaseRequest.
//   straggler        — a lease older than max(min_deadline_ms,
//                      straggler_factor × median lease time) expires on the
//                      poll thread's sweep; the holder gets LeaseRevoked
//                      (cooperative cancel at the next cell boundary) and
//                      the cells are reissued. Late results still fold as
//                      verified duplicates.
//   coordinator crash — when CoordinatorOptions::journal_path is set,
//                      every folded cell is appended to a CellJournal, as
//                      the same checksummed CellResult frame a worker sends,
//                      and flushed to the OS before it is acknowledged to
//                      progress subscribers. A restarted coordinator on the
//                      same journal re-leases ONLY the missing cells; the
//                      rerun merges bit-identical to an uninterrupted one.
//
// ## Architecture
//
// The coordinator's sockets belong to a net/reactor.h Reactor, the same
// poll loop the daemon runs on (non-blocking parse, bounded per-connection
// output queues, ProtocolError -> best-effort ErrorMsg + close). The reactor
// enforces the inbound sequence contract on every connection: frames from a
// worker must arrive seq 0, 1, 2, … — a gap means the transport lost or
// reordered something and the connection closes rather than fold
// questionable results. The coordinator sees decoded Messages, a tick per
// loop iteration (the deadline sweep) and each closed connection (its
// leases return to the table). The campaign itself runs nowhere in this
// process: ALL computation is in the workers; the coordinator only leases,
// folds, journals, and re-publishes progress through a JobFeed (job id 1),
// so `antalloc_client watch`/`fetch` work against a coordinator unmodified.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "io/campaign_io.h"
#include "net/feed.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "orch/lease.h"
#include "sim/campaign.h"

namespace antalloc {

// The job id the coordinator's single campaign is published under (Subscribe
// from antalloc_client).
inline constexpr std::uint64_t kCoordinatorJobId = 1;

struct CoordinatorOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
  JobSpec job;             // the campaign (validated in the constructor)
  LeaseOptions lease{};
  // Non-empty: resumable journal path (created, or resumed when the file
  // already exists and its header matches this campaign).
  std::string journal_path;
};

class CoordinatorServer final : private Reactor::Handler {
 public:
  // Validates the job (campaign_from_job), sizes the lease table and
  // merger, and recovers the journal when one is configured. Throws
  // std::invalid_argument on an unbuildable job, std::runtime_error on a
  // journal that names a different campaign.
  explicit CoordinatorServer(CoordinatorOptions opts);
  ~CoordinatorServer() override;  // stop()

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  // Binds, listens (loopback only), and starts the poll thread.
  void start();

  // Stops the poll thread and closes every socket. Idempotent. Safe to call
  // before the campaign completes (workers see their connections drop).
  void stop();

  std::uint16_t port() const { return reactor_.port(); }
  std::uint64_t config_hash() const { return config_hash_; }
  std::size_t total_cells() const { return total_cells_; }

  // Blocks until every cell folded (true) or the campaign failed (false —
  // see error()). stop() before completion unblocks it as a failure
  // ("coordinator stopped …") — the journal, when configured, makes that
  // resumable rather than fatal.
  bool wait_done();
  bool done() const;
  // Non-empty after a failure (a mismatched duplicate: two computations of
  // one cell disagreed, so the determinism contract is broken and no merged
  // result exists).
  std::string error() const;
  // The merged result; requires wait_done() == true.
  const CampaignResult& result() const;

  struct Stats {
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_released = 0;  // worker disconnects
    std::uint64_t leases_expired = 0;   // straggler deadline sweeps
    std::uint64_t cells_folded = 0;     // fresh first completions
    std::uint64_t cells_recovered = 0;  // from the journal at startup
    std::uint64_t duplicates_verified = 0;
    std::uint64_t connections_accepted = 0;  // from the reactor
    std::uint64_t evictions = 0;             // from the reactor
  };
  Stats stats() const;

 private:
  // Reactor::Handler, on the poll thread.
  void on_message(std::uint64_t conn_id, const Message& m) override;
  void on_tick() override { sweep_deadlines(now_ms()); }
  // Drops the connection from the request queues and returns its leases.
  void on_close(std::uint64_t conn_id) override;
  void handle_lease_request(std::uint64_t conn_id);
  void handle_cell_result(std::uint64_t conn_id, const CellResult& res);
  // Folds one arriving cell (merge, journal, lease completion, feed). The
  // lease-table side runs even for verified duplicates — completion is
  // completion no matter which worker raced it in.
  void fold_cell(CampaignCell cell);
  // Publishes one newly folded (or journal-recovered) cell to the feed.
  void publish_progress(const CampaignCell& cell);
  // Grants to as many queued requesters as the table allows; when the
  // campaign is done, answers every queued requester with a done-grant.
  void serve_pending(std::int64_t now_ms);
  // Campaign over (merged or failed): pushes a done-grant at EVERY worker
  // connection, parked or not, so a worker whose next LeaseRequest is still
  // in flight when the driver stops the server goes home cleanly instead of
  // seeing a lost connection.
  void broadcast_done();
  // Sends one grant (fresh lease or done) to a connection.
  void send_grant(std::uint64_t conn_id, const std::optional<Lease>& lease);
  // Returns freed leases of a dying connection to the table.
  void release_worker_leases(std::uint64_t conn_id);
  void sweep_deadlines(std::int64_t now_ms);
  // take()s the merger, finishes the feed, wakes wait_done().
  void finalize();
  void fail_campaign(const std::string& why);
  static std::int64_t now_ms();

  CoordinatorOptions opts_;
  CampaignConfig config_;  // built once; the hash source of truth
  std::uint64_t config_hash_ = 0;
  std::size_t total_cells_ = 0;
  std::vector<std::string> metrics_;  // resolved selection
  std::size_t n_scalars_ = 0;  // per-cell Welford states on the wire
  Reactor reactor_;  // the sockets; also the feed's FrameSink

  // Campaign state: poll-thread-owned after start() (the constructor touches
  // it freely before any thread exists).
  LeaseTable table_;
  IncrementalMerger merger_;
  std::unique_ptr<CellJournal> journal_;
  JobFeed feed_;
  std::map<std::uint64_t, std::uint64_t> lease_conn_;  // lease id -> conn id
  std::vector<std::uint64_t> pending_;  // conn ids awaiting a grantable lease
  std::vector<std::uint64_t> worker_conns_;  // conn ids that ever requested

  // Completion state (wait_done handshake + result storage).
  mutable std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::string error_;
  CampaignResult result_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace antalloc
