// Binary per-round trace log: the disk form of the RoundView stream.
//
// Both engines emit one RoundView per round (metrics/metric.h); a
// TraceWriter is a RoundSink that persists that stream as a compact,
// self-describing binary file, and io/trace_reader.h replays it — back into
// RoundViews, and from there through any Metric observer, bit-equal to the
// live run. That turns three in-memory-only consumers into disk-backed
// ones: the engine-parity audit compares traces record by record instead of
// distribution summaries, campaigns persist per-replicate payloads without
// CampaignConfig::keep_results, and post-hoc analysis can select metrics
// AFTER the run instead of re-simulating.
//
// ## File layout (all integers little-endian, 8-byte aligned)
//
//   header      magic, version, k, n_ants, seed, config_hash, the recorder
//               options every band-shaped metric needs (gamma, cs, cd,
//               warmup), and the round count (patched on close; the
//               kUnterminatedRounds sentinel while the writer is live, so a
//               crash mid-run is detectable as such).
//   segments    the demand schedule, segment by segment: start round,
//               active-task mask, per-task demands. Records do not repeat
//               demands — they reference this table by round, which is what
//               keeps records fixed-size.
//   meta checksum  FNV-1a over every byte above (patched on close).
//   records     one fixed-size record per round: round, switches, lifecycle
//               flushes, active mask, per-task visible loads, and a per-
//               record FNV-1a checksum (torn/partial writes surface as a
//               checksum mismatch on exactly the damaged record).
//
// ## Threading
//
// on_round serializes the record into a lock-free SPSC ring
// (parallel/spsc_ring.h) and returns; a dedicated writer thread drains the
// ring to the file. The producer (the engine thread driving
// MetricsRecorder) never touches the file, never allocates after
// construction, and only blocks (spin-yield) when the ring is full — i.e.
// when simulation outruns disk. One writer thread per TraceWriter; a
// TraceWriter serves exactly one run. close() joins the thread, patches the
// round count + checksum into the header, and rethrows any deferred I/O
// error; the destructor closes silently (call close() to observe errors —
// run_replicated_experiment's sink path does).
//
// Failure discipline (mirrors campaign_io's shard-version error): every
// way a trace can be unreadable has a distinct, named exception — see
// trace_reader.h. A partial read is never silent.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/demand.h"
#include "core/types.h"
#include "metrics/metric.h"
#include "parallel/spsc_ring.h"

namespace antalloc {

// Format constants. ----------------------------------------------------------

// "antTRC" + 2-digit on-disk generation, packed little-endian: the first 8
// bytes of every trace file. The generation in the magic only changes when
// the file stops being parseable as this layout at all; compatible
// revisions bump kTraceVersion instead.
inline constexpr std::uint64_t kTraceMagic = 0x3130435254746e61ull;  // "antTRC01"
inline constexpr std::uint32_t kTraceVersion = 1;

// Round-count sentinel stamped in the header while the writer is live;
// replaced by the real count on close. A file still carrying it was never
// closed (crash, kill) and is rejected as truncated.
inline constexpr std::uint64_t kUnterminatedRounds = ~0ull;

// Fixed header: magic, version+k (packed in one word), n_ants, seed,
// config_hash, gamma, cs, cd, warmup, rounds — 10 words.
inline constexpr std::size_t kTraceHeaderWords = 10;

// Per-record words before the per-task loads: t, switches, flushes,
// active mask; plus one trailing checksum word after the loads.
inline constexpr std::size_t kTraceRecordPrefixWords = 4;

inline constexpr std::size_t trace_record_bytes(std::int32_t num_tasks) {
  return 8 * (kTraceRecordPrefixWords + static_cast<std::size_t>(num_tasks) +
              1);
}

// Errors. --------------------------------------------------------------------

// Base class for everything trace-shaped; catch this to handle "this trace
// is unusable" uniformly, or the subtypes to react to the specific damage.
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The file does not start with the trace magic — not a trace at all.
class TraceBadMagicError : public TraceError {
 public:
  using TraceError::TraceError;
};

// The file is a trace but from a different format version; the message
// names both versions (mirror of campaign_io's shard-version discipline:
// version skew is its own error, never a checksum mismatch).
class TraceVersionError : public TraceError {
 public:
  using TraceError::TraceError;
};

// Header/segment-table bytes fail their checksum, or contradict each other.
class TraceChecksumError : public TraceError {
 public:
  using TraceError::TraceError;
};

// The file ends early: mid-header, mid-record, with fewer records than the
// header promises, or with the unterminated-writer sentinel still in place.
class TraceTruncatedError : public TraceError {
 public:
  using TraceError::TraceError;
};

// A record's own checksum fails — the signature of a torn (partially
// flushed) write inside an otherwise well-formed file. The message names
// the record index.
class TraceTornRecordError : public TraceError {
 public:
  using TraceError::TraceError;
};

// Opening, writing or closing the underlying file failed.
class TraceIoError : public TraceError {
 public:
  using TraceError::TraceError;
};

// Writer. --------------------------------------------------------------------

// Run-constant header fields. gamma/bands/warmup mirror the
// MetricsRecorder::Options of the live run so a replay reconstructs the
// same recorder without out-of-band knowledge; config_hash is the caller's
// provenance stamp (campaign_config_hash for campaign traces, 0 for ad-hoc
// runs); seed is the trial seed the run consumed.
struct TraceMeta {
  Count n_ants = 0;
  std::uint64_t seed = 0;
  std::uint64_t config_hash = 0;
  double gamma = 0.01;
  RegretBands bands{};
  Round warmup = 0;
};

// The RoundSink that writes the trace. Construct it with the run's demand
// schedule (the segment table is written up front), point
// MetricsRecorder::Options::sink at it, run, then close(). Requires
// num_tasks <= 64 (the active mask is one word — the same kMaxAgentTasks
// bound the per-ant engine packs feedback under).
class TraceWriter final : public RoundSink {
 public:
  TraceWriter(const std::string& path, const DemandSchedule& schedule,
              const TraceMeta& meta, std::size_t ring_capacity = 1024);
  ~TraceWriter() override;

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Hot path: serializes one record into the ring. Blocks (yield-spin) only
  // when the writer thread is behind by a full ring. Throws TraceIoError if
  // the writer thread has already failed.
  void on_round(const RoundView& view) override;

  // Drains the ring, joins the writer thread, patches round count and meta
  // checksum into the header, and closes the file. Idempotent. Throws
  // TraceIoError on any deferred write failure; the destructor runs the
  // same shutdown but swallows the throw.
  void close() override;

  const std::string& path() const { return path_; }
  Round rounds_written() const { return rounds_; }

 private:
  void writer_loop();
  void fail(const std::string& what);

  std::string path_;
  std::int32_t k_ = 0;
  std::size_t record_bytes_ = 0;
  std::vector<std::uint8_t> meta_bytes_;  // header + segments + checksum word
  SpscByteRing ring_;
  std::FILE* file_ = nullptr;
  std::thread writer_;
  std::atomic<bool> done_{false};
  std::atomic<bool> failed_{false};
  std::string error_;  // written by the writer thread before failed_, read after
  Round rounds_ = 0;
  bool closed_ = false;
};

// Campaign trace naming: the per-replicate file for matrix cell
// `flat_index`, replicate `replicate`, as written under
// CampaignConfig::trace_dir.
std::string trace_file_name(std::size_t flat_index, std::int64_t replicate);

}  // namespace antalloc
