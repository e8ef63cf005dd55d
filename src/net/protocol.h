// Wire protocol for the antalloc daemon: the byte layer under
// net/server.h (the service) and net/client.h (the callers).
//
// The shape is the market-data-feed one the ROADMAP names: an 8-byte
// magic+version handshake, then a stream of length-prefixed frames with a
// fixed 16-byte header and an explicit type — a single-threaded command
// core can parse it incrementally from non-blocking sockets, and a client
// can detect gaps (per-connection sequence numbers) and damage (an FNV-1a
// checksum word trails every frame) without trusting the transport.
//
// ## Handshake
//
// Each side sends 8 bytes immediately after connect: "antNET" followed by a
// little-endian 16-bit protocol version. The first six bytes identify the
// protocol (wrong → ProtocolBadMagicError: not an antalloc daemon at all);
// the version word identifies the revision (wrong → ProtocolVersionError,
// naming both versions — the same skew-beats-checksum discipline as the
// trace reader). Nothing else is exchanged until both hellos validate.
//
// ## Framing (all integers little-endian)
//
//   offset  size  field
//        0     4  type      MsgType of the payload
//        4     4  flags     reserved; senders write 0, receivers ignore
//        8     4  length    payload bytes (bounded by kMaxFramePayload)
//       12     4  seq       per-connection monotone counter, 0-based
//       16   len  payload   the message body (codecs below)
//    16+len     8  checksum  FNV-1a (rng::hash_bytes) over header+payload
//
// Every way a frame can be unreadable has a distinct named error (mirroring
// io/trace_reader.h): short buffer → ProtocolTruncatedError, length over
// the bound → ProtocolOversizeError (checked before waiting for the body,
// so a hostile length can never make a reader buffer gigabytes), checksum
// word mismatch → ProtocolChecksumError, a payload whose internal structure
// contradicts the declared length → ProtocolTornPayloadError, an
// unregistered type → ProtocolUnknownTypeError. tests/protocol_test.cpp
// pins each damage class to its class.
//
// ## Messages
//
// Client → server: SubmitJob (a declarative JobSpec — names and numbers
// only, never closures, so the daemon rebuilds the exact CampaignConfig and
// campaign_config_hash a batch run of the same spec would use), Subscribe.
// Server → client: JobAccepted/JobRejected, then per subscription one
// Snapshot (every cell folded so far) followed by incremental
// MetricDelta/ProgressDelta pairs as further cells fold, and a terminal
// JobDone; ErrorMsg for malformed or unanswerable requests. Snapshot +
// deltas carry each cell's full Welford accumulator states
// (RunningStats::State, doubles as raw bit patterns), so a subscriber
// reassembles the CampaignResult bit-identical to the in-process one —
// net/client.h's FeedAssembler does exactly that.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "agent/agent_sim.h"
#include "core/allocation.h"
#include "core/types.h"
#include "sim/experiment.h"
#include "stats/summary.h"

namespace antalloc {

// Format constants. ----------------------------------------------------------

inline constexpr std::size_t kHelloBytes = 8;
// The first six handshake bytes: "antNET".
inline constexpr std::array<std::uint8_t, 6> kNetMagic = {'a', 'n', 't',
                                                          'N', 'E', 'T'};
inline constexpr std::uint16_t kNetVersion = 1;

inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kFrameChecksumBytes = 8;
// Hard payload bound: a header declaring more is damaged (or hostile) and
// raises ProtocolOversizeError before any body bytes are awaited.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

enum class MsgType : std::uint32_t {
  kSubmitJob = 1,
  kJobAccepted = 2,
  kJobRejected = 3,
  kSubscribe = 4,
  kSnapshot = 5,
  kMetricDelta = 6,
  kProgressDelta = 7,
  kJobDone = 8,
  kError = 9,
  // Fleet orchestration (src/orch/): worker <-> coordinator.
  kLeaseRequest = 10,
  kLeaseGrant = 11,
  kCellResult = 12,
  kLeaseRevoked = 13,
  // Daemon job control.
  kCancelJob = 14,
};

// Errors. --------------------------------------------------------------------

// Base class for everything protocol-shaped; catch this to handle "this
// peer/stream is unusable" uniformly, or the subtypes for the specific
// damage class.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The handshake does not start with "antNET" — not an antalloc daemon.
class ProtocolBadMagicError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

// The peer speaks the protocol but a different version; the message names
// both versions. Version skew beats every later check: a frame from another
// revision is never reported as a checksum or payload error.
class ProtocolVersionError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

// The buffer/stream ends before a complete hello or frame (mid-header,
// mid-payload, or missing the trailing checksum word).
class ProtocolTruncatedError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

// The header's length field exceeds kMaxFramePayload.
class ProtocolOversizeError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

// The frame's trailing FNV-1a word does not match header+payload — bytes
// were damaged in flight or at rest.
class ProtocolChecksumError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

// The frame checksums clean but the payload's internal structure contradicts
// the declared length: an inner length field points past the payload end,
// an enum holds an unregistered value, or decode leaves trailing bytes.
// The signature of an encoder/decoder disagreement (torn payload), as
// opposed to transport damage (checksum).
class ProtocolTornPayloadError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

// The frame type is not a registered MsgType.
class ProtocolUnknownTypeError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

// A socket operation failed (connect, read, write, timeout) — the transport
// layer's error, distinct from every byte-format one.
class ProtocolIoError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

// Codec primitives. ----------------------------------------------------------

// Little-endian byte writer: the encode half of every message codec.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  // u32 length prefix + raw bytes.
  void str(const std::string& s);
  void strings(const std::vector<std::string>& v);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Little-endian byte reader over a payload span. Any read past the end
// throws ProtocolTornPayloadError — by the time a reader runs, the frame
// already passed the length and checksum gates, so an overrun means the
// payload's internal structure lies about itself.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  std::vector<std::string> strings();
  // A u32 element count. Throws ProtocolTornPayloadError when that many
  // items of at least min_item_bytes each cannot fit in what remains, so a
  // hostile count never reaches a reserve().
  std::uint32_t count(std::size_t min_item_bytes);

  std::size_t consumed() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// Handshake. -----------------------------------------------------------------

// The 8 bytes each side sends immediately after connect.
std::array<std::uint8_t, kHelloBytes> encode_hello();

// Validates a peer hello: throws ProtocolTruncatedError on fewer than 8
// bytes, ProtocolBadMagicError on a wrong magic, ProtocolVersionError on a
// version word != kNetVersion (message names both).
void check_hello(std::span<const std::uint8_t> bytes);

// Messages. ------------------------------------------------------------------

enum class NoiseKind : std::uint8_t { kSigmoid = 0, kExact = 1, kAdv = 2 };

// One noise model by name+parameters — the wire stand-in for the closure a
// NoiseSpec carries in process. net/server.h's noise_spec_from turns it
// back into the factory (and the display name that enters
// campaign_config_hash).
struct JobNoise {
  NoiseKind kind = NoiseKind::kSigmoid;
  double lambda = 0.2;              // sigmoid noise sharpness
  double gamma_ad = 0.02;           // adversarial grey-zone width
  std::string adversary = "honest"; // adversary name (kAdv only)
};

struct JobAlgo {
  std::string name;      // registered algorithm name
  double gamma = 0.02;   // learning rate (must be explicit: > 0)
  double epsilon = 0.5;  // precise variants only
};

// A declarative campaign request: registry names and numbers only, so the
// config — and its campaign_config_hash — is reproducible on any machine.
// net/server.h's campaign_from_job validates and instantiates it; a batch
// CLI run built from the same spec computes byte-identical rows.
struct JobSpec {
  std::vector<std::string> scenarios;  // registered family names
  std::vector<JobAlgo> algos;
  JobNoise noise{};
  std::vector<Count> demands;  // base demand vector (k = demands.size())
  Count n_ants = 1 << 14;
  Round rounds = 10'000;
  std::uint64_t seed = 1;
  std::int64_t replicates = 1;
  Engine engine = Engine::kAuto;
  SamplingMode sampling = SamplingMode::kBatched;
  InitialKind initial = InitialKind::kIdle;
  // Recorder band gamma; <= 0 keeps the recorder default, a fixed 0.01 for
  // every algorithm (the CLI and client set it from --gamma).
  double metrics_gamma = 0.0;
  std::vector<std::string> metrics;  // registry selection; empty = default
};

struct SubmitJob {
  JobSpec job;
};

struct JobAccepted {
  std::uint64_t job_id = 0;
  std::uint64_t config_hash = 0;  // campaign_config_hash of the built config
  std::uint64_t total_cells = 0;
  std::int64_t replicates = 0;
};

struct JobRejected {
  std::string reason;
};

struct Subscribe {
  std::uint64_t job_id = 0;
};

// One folded campaign cell as the feed transmits it: labels, the resolved
// engine, and the exact Welford accumulator state of every selected scalar
// (RunningStats::State, layout = the job's resolved metric selection).
// Bit-exact round trip is the whole point: doubles travel as raw bit
// patterns, so a reassembled CampaignResult is byte-identical to the
// in-process one.
struct CellUpdate {
  std::uint64_t flat_index = 0;
  std::string scenario;
  std::string algo;
  std::string noise;
  Engine engine = Engine::kAggregate;
  std::vector<RunningStats::State> stats;  // one per selected scalar
};

enum class JobState : std::uint8_t { kRunning = 0, kDone = 1, kFailed = 2 };

// Subscribe's reply: everything folded so far, plus the layout (resolved
// metric names) every later CellUpdate follows. A subscriber needs nothing
// before it and, with the deltas after it, misses nothing: the feed builds
// the snapshot and registers the subscriber under one lock, so the deltas
// that follow are exactly the cells the snapshot lacks.
struct Snapshot {
  std::uint64_t job_id = 0;
  JobState state = JobState::kRunning;
  std::uint64_t config_hash = 0;
  std::uint64_t cells_total = 0;
  std::int64_t replicates = 0;        // per cell
  std::vector<std::string> metrics;   // resolved selection (scalar layout)
  std::vector<CellUpdate> cells;      // folded so far, in fold order
  std::int64_t replicates_done = 0;
  std::uint64_t steals = 0;
};

// One cell folded after the subscriber's snapshot.
struct MetricDelta {
  std::uint64_t job_id = 0;
  CellUpdate cell;
};

// Scheduling progress, emitted alongside each MetricDelta (the wire form of
// CampaignProgress::Update).
struct ProgressDelta {
  std::uint64_t job_id = 0;
  std::uint64_t flat_index = 0;
  std::uint64_t cells_done = 0;
  std::uint64_t cells_total = 0;
  std::uint64_t cells_in_flight = 0;
  std::int64_t replicates_done = 0;
  std::uint64_t steals = 0;
};

// Terminal frame of a subscription. result_checksum is rng::hash_string of
// the full CampaignResult's to_csv(), so a subscriber can verify its
// reassembly end to end without a second transfer.
struct JobDone {
  std::uint64_t job_id = 0;
  std::uint8_t ok = 1;
  std::uint64_t config_hash = 0;
  std::uint64_t result_checksum = 0;
  std::string error;  // empty when ok
};

// Request-level failure that is not a job rejection: unknown job id,
// unexpected message type, malformed frame (best-effort, before close).
struct ErrorMsg {
  std::uint32_t code = 0;
  std::string message;
};

// Fleet orchestration messages (src/orch/). ----------------------------------
//
// A worker asks the coordinator for work; the coordinator answers with a
// lease over a contiguous range of the campaign's flat cell space. Completed
// cells travel back as CellUpdate bodies (the same Welford-state encoding
// the feed uses), keyed on campaign_config_hash + flat index so the
// coordinator can fold exactly once no matter how many times a cell is
// reissued and recomputed.

// Worker -> coordinator: "give me work". `worker` is a display identity for
// logs and lease bookkeeping only; it carries no authority.
struct LeaseRequest {
  std::string worker;
};

// Coordinator -> worker: a lease over cells [first_cell, first_cell +
// cell_count) of the campaign whose full declarative spec rides along (the
// worker is stateless — it rebuilds the exact CampaignConfig, and its
// campaign_config_hash must equal config_hash or the worker refuses).
// deadline_ms is informational: the coordinator reissues the cells after
// that many milliseconds, so a worker past it may be racing a replacement.
// done=1 means the campaign is complete (or cancelled) and the worker
// should exit; every other field is zero in that case.
struct LeaseGrant {
  std::uint64_t lease_id = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t first_cell = 0;
  std::uint64_t cell_count = 0;
  std::uint64_t deadline_ms = 0;
  std::uint8_t done = 0;
  JobSpec job;
};

// Worker -> coordinator: one folded cell of a leased range. The coordinator
// folds the FIRST completion of each flat index and verifies any later
// duplicate byte-equal (same RunningStats::State bits) before dropping it —
// a retry can never change a number, only confirm one.
struct CellResult {
  std::uint64_t lease_id = 0;
  std::uint64_t config_hash = 0;
  CellUpdate cell;
};

// Coordinator -> worker: the lease expired (straggler past deadline) or the
// campaign no longer needs its cells; the worker should stop computing them
// (cooperatively, at the next cell boundary) and request a fresh lease.
struct LeaseRevoked {
  std::uint64_t lease_id = 0;
  std::string reason;
};

// Client -> daemon: request cooperative cancellation of a running job. The
// daemon sets the job's cancel flag; run_campaign observes it at cell/
// replicate boundaries and the job finishes as failed ("cancelled") through
// the normal feed path (JobDone ok=0). Unknown job id -> ErrorMsg 404.
struct CancelJob {
  std::uint64_t job_id = 0;
};

using Message = std::variant<SubmitJob, JobAccepted, JobRejected, Subscribe,
                             Snapshot, MetricDelta, ProgressDelta, JobDone,
                             ErrorMsg, LeaseRequest, LeaseGrant, CellResult,
                             LeaseRevoked, CancelJob>;

MsgType message_type(const Message& m);

// Framing. -------------------------------------------------------------------

struct FrameHeader {
  MsgType type = MsgType::kError;
  std::uint32_t flags = 0;
  std::uint32_t length = 0;
  std::uint32_t seq = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

// Encodes a message body (no header, no checksum) — what a fan-out feed
// shares across subscribers before each connection wraps it with its own
// sequence number.
std::vector<std::uint8_t> encode_payload(const Message& m);

// Wraps an encoded payload into a complete frame: header, payload, trailing
// checksum.
std::vector<std::uint8_t> wrap_frame(MsgType type, std::uint32_t seq,
                                     std::span<const std::uint8_t> payload,
                                     std::uint32_t flags = 0);

// encode_payload + wrap_frame.
std::vector<std::uint8_t> encode_frame(const Message& m, std::uint32_t seq,
                                       std::uint32_t flags = 0);

// Incremental decode for non-blocking readers: returns std::nullopt when
// `buf` does not yet hold a complete frame (read more and retry) and sets
// *consumed on success. Throws ProtocolOversizeError as soon as the header
// is visible (never waits for a hostile body) and ProtocolChecksumError on
// a complete frame whose trailing word mismatches.
std::optional<Frame> try_decode_frame(std::span<const std::uint8_t> buf,
                                      std::size_t* consumed);

// Strict decode for complete buffers (files, tests): like try_decode_frame
// but an incomplete frame throws ProtocolTruncatedError.
Frame decode_frame(std::span<const std::uint8_t> buf,
                   std::size_t* consumed = nullptr);

// Decodes a frame's payload into its message. Throws
// ProtocolUnknownTypeError for an unregistered header type and
// ProtocolTornPayloadError when the payload under- or over-runs its
// declared length (including enum fields holding unregistered values).
Message decode_message(const Frame& frame);

}  // namespace antalloc
