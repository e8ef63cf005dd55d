// Client side of the daemon protocol: a blocking connection speaking
// net/protocol.h (DaemonClient) and the snapshot+delta reassembler that
// turns a subscription's frame stream back into a CampaignResult
// (FeedAssembler) — bit-identical to the in-process one, which
// tests/daemon_feed_test.cpp and the CI smoke job both verify.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "sim/campaign.h"

namespace antalloc {

// A blocking client connection: connect + hello exchange in the
// constructor, then send()/recv() whole messages. Throws ProtocolIoError on
// transport failures and the net/protocol.h subtypes on damaged bytes;
// recv() additionally enforces the per-connection sequence contract (frames
// arrive with seq 0, 1, 2, … — a gap throws ProtocolError, which is how a
// subscriber knows it lost frames rather than merely waiting).
class DaemonClient {
 public:
  struct Options {
    // When > 0, shrink the kernel receive buffer (SO_RCVBUF) before
    // connecting — the stress test's lever for making a consumer slow.
    int recv_buffer_bytes = 0;
  };

  DaemonClient(const std::string& host, std::uint16_t port);
  DaemonClient(const std::string& host, std::uint16_t port, Options opts);
  ~DaemonClient();

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  void send(const Message& m);
  // Blocks until one complete frame arrives; decodes and seq-checks it.
  Message recv();

  // Half-closes both directions WITHOUT releasing the descriptor: a recv()
  // blocked in another thread returns immediately (EOF), which is how a
  // multi-threaded caller (the fleet worker's watcher, src/orch/worker.cpp)
  // unblocks its reader before joining it. close() still owns the fd.
  void shutdown();

  void close();

 private:
  int fd_ = -1;
  std::uint32_t send_seq_ = 0;
  std::uint32_t recv_seq_ = 0;
  std::vector<std::uint8_t> inbuf_;
  std::size_t in_head_ = 0;
};

// Rebuilds a CampaignResult from a subscription's message stream: one
// Snapshot (the consistent starting state), any number of
// MetricDelta/ProgressDelta frames, one terminal JobDone. Cells carry full
// Welford accumulator states, so the rebuilt result is byte-identical to
// the daemon's in-process one — verify() checks exactly that against the
// result_checksum the JobDone carries.
class FeedAssembler {
 public:
  // Folds one message; returns true once the terminal JobDone arrived.
  // Ignores message types that are not part of a feed (JobAccepted, …).
  bool fold(const Message& m);

  bool done() const { return done_.has_value(); }
  const std::optional<Snapshot>& snapshot() const { return snapshot_; }
  const std::optional<JobDone>& job_done() const { return done_; }
  const std::optional<ProgressDelta>& last_progress() const {
    return progress_;
  }
  std::size_t cells_seen() const { return cells_.size(); }

  // The reassembled result (cells in flat order).
  // Requires a snapshot to have arrived.
  CampaignResult result() const;

  // rng::hash_string(result().to_csv()) == JobDone::result_checksum — the
  // end-to-end proof the reassembly is byte-identical. Requires done().
  bool verify() const;

 private:
  std::optional<Snapshot> snapshot_;
  std::optional<JobDone> done_;
  std::optional<ProgressDelta> progress_;
  std::map<std::uint64_t, CellUpdate> cells_;  // keyed by flat_index
};

}  // namespace antalloc
