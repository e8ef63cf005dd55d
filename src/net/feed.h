// Per-job live metric feed: the fan-out between one running campaign and
// many subscribers, in the snapshot-plus-incremental-delta shape of a
// market-data feed (and of the streaming-estimation framing in PAPERS.md:
// a subscriber needs one consistent state transfer, then only increments).
//
// A JobFeed IS a CampaignProgress observer — the daemon points
// CampaignConfig::progress at it, so the campaign's per-cell fold events
// become wire frames with no engine changes: the folded cell's metric
// statistics (Update::cell — the PR 5 streaming-metric scalars, folded per
// replicate) turn into a MetricDelta, the scheduling counters into a
// ProgressDelta. The feed never touches sockets: it encodes each message
// once and hands the shared payload to a FrameSink (net/reactor.h implements
// it over the connection table), which wraps it per subscriber with that
// connection's own sequence number.
//
// ## Snapshot/delta contract
//
// subscribe() builds a Snapshot of every cell folded so far and registers
// the subscriber under the SAME lock publish runs under, so the deltas the
// subscriber receives afterwards are exactly the cells its snapshot lacks:
// no gap, no duplicate, regardless of when it subscribed. A subscriber to a
// finished job gets a complete snapshot (state kDone/kFailed) followed
// immediately by the terminal JobDone — "fetch" is just a late subscribe.
//
// ## Slow consumers
//
// The feed pushes; it never waits. A subscriber whose connection cannot
// absorb the stream (FrameSink reports kEvicted once the per-subscriber
// backlog bound is crossed, kGone once the connection died) is dropped from
// the fan-out list on the spot. Eviction is the sink's call — the feed's
// contract is only that one slow consumer never blocks the campaign or the
// other subscribers, and that dropping a subscriber changes no number
// (the feed is an observer; tests/feed_stress_test.cpp pins both).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "sim/campaign.h"

namespace antalloc {

// Where encoded messages go: one abstract hop so the feed is testable
// without sockets. Implementations wrap the shared payload into a frame
// with the target connection's own sequence number.
class FrameSink {
 public:
  enum class Send {
    kOk,       // queued (or written) for this subscriber
    kGone,     // connection no longer exists — drop the subscriber
    kEvicted,  // backlog bound crossed — connection evicted, drop it
  };

  virtual ~FrameSink();

  virtual Send send_message(std::uint64_t conn_id, MsgType type,
                            std::span<const std::uint8_t> payload) = 0;
};

// The per-job fan-out. Constructed by the daemon at job acceptance; the
// campaign drives it from executor threads (on_cell_done, finish/fail), the
// server's poll thread drives subscribe() — every entry point serializes on
// one internal mutex, which is what makes the snapshot/delta contract hold.
class JobFeed final : public CampaignProgress {
 public:
  JobFeed(FrameSink* sink, std::uint64_t job_id, std::uint64_t config_hash,
          std::uint64_t cells_total, std::int64_t replicates,
          std::vector<std::string> metrics);

  // CampaignProgress: one folded cell → MetricDelta + ProgressDelta to every
  // live subscriber, and into the snapshot state for future ones.
  void on_cell_done(const Update& update) override;

  // Registers a subscriber and sends it the consistent Snapshot (plus the
  // terminal JobDone when the job already finished).
  void subscribe(std::uint64_t conn_id);

  // Terminal events (exactly one of the two, once): JobDone fan-out, and
  // the state future snapshots report. result_checksum lets subscribers
  // verify their reassembled CampaignResult end to end.
  void finish(const CampaignResult& result);
  void fail(const std::string& error);

  bool finished() const;
  std::size_t subscriber_count() const;

 private:
  // Encodes once, sends to every subscriber, drops the gone/evicted ones.
  // Caller holds mutex_.
  void fan_out(const Message& m);

  FrameSink* sink_;  // borrowed; the reactor outlives its feeds
  const std::uint64_t job_id_;
  const std::uint64_t config_hash_;
  const std::uint64_t cells_total_;
  const std::int64_t replicates_;
  const std::vector<std::string> metrics_;

  mutable std::mutex mutex_;
  std::vector<CellUpdate> folded_;  // snapshot state, in fold order
  std::int64_t replicates_done_ = 0;
  std::uint64_t steals_ = 0;
  JobState state_ = JobState::kRunning;
  JobDone done_msg_;  // valid once state_ != kRunning
  std::vector<std::uint64_t> subscribers_;
};

// The wire form of one folded campaign cell (shared by the feed's deltas
// and snapshots, and by the coordinator's CellResult frames).
CellUpdate cell_update_from(const CampaignCell& cell);

// Its inverse: the wire cell back into the in-process one, legacy views
// filled from `specs` (the campaign's scalar columns). Used by
// net/client.h's reassembly and the coordinator's merge.
CampaignCell cell_from_update(const CellUpdate& u,
                              std::span<const MetricScalar> specs);

}  // namespace antalloc
