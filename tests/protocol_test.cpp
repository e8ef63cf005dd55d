// Wire protocol: exhaustive field-by-field round trips for every message
// type, and a corruption battery mirroring trace_corruption_test — every
// way a hello or frame can be unreadable is pinned to its own named
// ProtocolError subclass (bad magic, version skew, truncation, oversized
// length, checksum damage, torn payloads, unknown types), so client and
// server diagnostics can never conflate damage classes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "net/protocol.h"
#include "stats/summary.h"

namespace antalloc {
namespace {

// A non-trivial accumulator: real add()s so mean/m2/min/max carry
// full-precision doubles whose bits must survive the wire.
RunningStats::State sample_state(double a, double b, double c) {
  RunningStats s;
  s.add(a);
  s.add(b);
  s.add(c);
  return s.state();
}

CellUpdate sample_cell(std::uint64_t flat) {
  CellUpdate c;
  c.flat_index = flat;
  c.scenario = "task-churn";
  c.algo = "ant";
  c.noise = "sigmoid(lambda=0.200)";
  c.engine = Engine::kAgent;
  c.stats = {sample_state(0.1, 0.7, -2.5), sample_state(3.0, 3.0, 3.0)};
  return c;
}

void expect_state_eq(const RunningStats::State& a,
                     const RunningStats::State& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.m2, b.m2);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
}

void expect_cell_eq(const CellUpdate& a, const CellUpdate& b) {
  EXPECT_EQ(a.flat_index, b.flat_index);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.algo, b.algo);
  EXPECT_EQ(a.noise, b.noise);
  EXPECT_EQ(a.engine, b.engine);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    expect_state_eq(a.stats[i], b.stats[i]);
  }
}

// encode_frame -> decode_frame -> decode_message, returning the typed body
// and checking the header along the way.
template <typename T>
T round_trip(const T& msg, std::uint32_t seq = 7) {
  const std::vector<std::uint8_t> bytes = encode_frame(Message{msg}, seq);
  std::size_t consumed = 0;
  const Frame frame = decode_frame(bytes, &consumed);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.header.type, message_type(Message{msg}));
  EXPECT_EQ(frame.header.seq, seq);
  EXPECT_EQ(frame.header.length, frame.payload.size());
  const Message decoded = decode_message(frame);
  EXPECT_EQ(message_type(decoded), message_type(Message{msg}));
  return std::get<T>(decoded);
}

// Round trips, one message type each. ---------------------------------------

TEST(ProtocolRoundTrip, SubmitJob) {
  SubmitJob m;
  m.job.scenarios = {"task-churn", "constant", "seasonal"};
  m.job.algos = {JobAlgo{.name = "ant", .gamma = 0.034, .epsilon = 0.5},
                 JobAlgo{.name = "trivial", .gamma = 0.07, .epsilon = 0.25}};
  m.job.noise = JobNoise{.kind = NoiseKind::kAdv,
                         .lambda = 0.31,
                         .gamma_ad = 0.015,
                         .adversary = "anti-gradient"};
  m.job.demands = {Count{120}, Count{80}, Count{60}};
  m.job.n_ants = 12345;
  m.job.rounds = 678;
  m.job.seed = 0xdeadbeefcafef00dULL;
  m.job.replicates = 9;
  m.job.engine = Engine::kAgent;
  m.job.sampling = SamplingMode::kPerAnt;
  m.job.initial = InitialKind::kAdversarial;
  m.job.metrics_gamma = 0.0425;
  m.job.metrics = {"regret", "convergence", "oscillation"};

  const SubmitJob d = round_trip(m);
  EXPECT_EQ(d.job.scenarios, m.job.scenarios);
  ASSERT_EQ(d.job.algos.size(), m.job.algos.size());
  for (std::size_t i = 0; i < m.job.algos.size(); ++i) {
    EXPECT_EQ(d.job.algos[i].name, m.job.algos[i].name);
    EXPECT_EQ(d.job.algos[i].gamma, m.job.algos[i].gamma);
    EXPECT_EQ(d.job.algos[i].epsilon, m.job.algos[i].epsilon);
  }
  EXPECT_EQ(d.job.noise.kind, m.job.noise.kind);
  EXPECT_EQ(d.job.noise.lambda, m.job.noise.lambda);
  EXPECT_EQ(d.job.noise.gamma_ad, m.job.noise.gamma_ad);
  EXPECT_EQ(d.job.noise.adversary, m.job.noise.adversary);
  EXPECT_EQ(d.job.demands, m.job.demands);
  EXPECT_EQ(d.job.n_ants, m.job.n_ants);
  EXPECT_EQ(d.job.rounds, m.job.rounds);
  EXPECT_EQ(d.job.seed, m.job.seed);
  EXPECT_EQ(d.job.replicates, m.job.replicates);
  EXPECT_EQ(d.job.engine, m.job.engine);
  EXPECT_EQ(d.job.sampling, m.job.sampling);
  EXPECT_EQ(d.job.initial, m.job.initial);
  EXPECT_EQ(d.job.metrics_gamma, m.job.metrics_gamma);
  EXPECT_EQ(d.job.metrics, m.job.metrics);
}

TEST(ProtocolRoundTrip, JobAccepted) {
  const JobAccepted m{.job_id = 42,
                      .config_hash = 0x0123456789abcdefULL,
                      .total_cells = 24,
                      .replicates = 8};
  const JobAccepted d = round_trip(m);
  EXPECT_EQ(d.job_id, m.job_id);
  EXPECT_EQ(d.config_hash, m.config_hash);
  EXPECT_EQ(d.total_cells, m.total_cells);
  EXPECT_EQ(d.replicates, m.replicates);
}

TEST(ProtocolRoundTrip, JobRejected) {
  const JobRejected m{.reason = "unknown scenario 'quux'"};
  EXPECT_EQ(round_trip(m).reason, m.reason);
}

TEST(ProtocolRoundTrip, Subscribe) {
  const Subscribe m{.job_id = 0xffffffffffffffffULL};
  EXPECT_EQ(round_trip(m).job_id, m.job_id);
}

TEST(ProtocolRoundTrip, Snapshot) {
  Snapshot m;
  m.job_id = 3;
  m.state = JobState::kRunning;
  m.config_hash = 0xfeedface12345678ULL;
  m.cells_total = 12;
  m.replicates = 4;
  m.metrics = {"regret", "violations", "switches"};
  m.cells = {sample_cell(0), sample_cell(5), sample_cell(11)};
  m.replicates_done = 13;
  m.steals = 77;

  const Snapshot d = round_trip(m);
  EXPECT_EQ(d.job_id, m.job_id);
  EXPECT_EQ(d.state, m.state);
  EXPECT_EQ(d.config_hash, m.config_hash);
  EXPECT_EQ(d.cells_total, m.cells_total);
  EXPECT_EQ(d.replicates, m.replicates);
  EXPECT_EQ(d.metrics, m.metrics);
  ASSERT_EQ(d.cells.size(), m.cells.size());
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    expect_cell_eq(d.cells[i], m.cells[i]);
  }
  EXPECT_EQ(d.replicates_done, m.replicates_done);
  EXPECT_EQ(d.steals, m.steals);
}

TEST(ProtocolRoundTrip, MetricDelta) {
  MetricDelta m;
  m.job_id = 9;
  m.cell = sample_cell(4);
  const MetricDelta d = round_trip(m);
  EXPECT_EQ(d.job_id, m.job_id);
  expect_cell_eq(d.cell, m.cell);
}

TEST(ProtocolRoundTrip, ProgressDelta) {
  const ProgressDelta m{.job_id = 2,
                        .flat_index = 17,
                        .cells_done = 5,
                        .cells_total = 24,
                        .cells_in_flight = 3,
                        .replicates_done = 40,
                        .steals = 123456789};
  const ProgressDelta d = round_trip(m);
  EXPECT_EQ(d.job_id, m.job_id);
  EXPECT_EQ(d.flat_index, m.flat_index);
  EXPECT_EQ(d.cells_done, m.cells_done);
  EXPECT_EQ(d.cells_total, m.cells_total);
  EXPECT_EQ(d.cells_in_flight, m.cells_in_flight);
  EXPECT_EQ(d.replicates_done, m.replicates_done);
  EXPECT_EQ(d.steals, m.steals);
}

TEST(ProtocolRoundTrip, JobDone) {
  const JobDone m{.job_id = 6,
                  .ok = 0,
                  .config_hash = 0x1111222233334444ULL,
                  .result_checksum = 0x5555666677778888ULL,
                  .error = "cell 3 failed: agent-only algorithm"};
  const JobDone d = round_trip(m);
  EXPECT_EQ(d.job_id, m.job_id);
  EXPECT_EQ(d.ok, m.ok);
  EXPECT_EQ(d.config_hash, m.config_hash);
  EXPECT_EQ(d.result_checksum, m.result_checksum);
  EXPECT_EQ(d.error, m.error);
}

TEST(ProtocolRoundTrip, ErrorMsg) {
  const ErrorMsg m{.code = 404, .message = "unknown job id 99"};
  const ErrorMsg d = round_trip(m);
  EXPECT_EQ(d.code, m.code);
  EXPECT_EQ(d.message, m.message);
}

// Fleet messages (orch/): the lease lifecycle on the wire. ------------------

TEST(ProtocolRoundTrip, LeaseRequest) {
  const LeaseRequest m{.worker = "worker-7"};
  EXPECT_EQ(round_trip(m).worker, m.worker);
  EXPECT_EQ(round_trip(LeaseRequest{}).worker, "");
}

TEST(ProtocolRoundTrip, LeaseGrant) {
  LeaseGrant m;
  m.lease_id = 17;
  m.config_hash = 0x0fedcba987654321ULL;
  m.first_cell = 12;
  m.cell_count = 4;
  m.deadline_ms = 30'000;
  m.done = 0;
  m.job.scenarios = {"task-churn"};
  m.job.algos = {JobAlgo{.name = "ant", .gamma = 0.034}};
  m.job.demands = {Count{120}, Count{80}};
  m.job.n_ants = 600;
  m.job.rounds = 300;
  m.job.seed = 42;
  m.job.replicates = 4;
  m.job.metrics = {"regret", "oscillation-per-task@2"};

  const LeaseGrant d = round_trip(m);
  EXPECT_EQ(d.lease_id, m.lease_id);
  EXPECT_EQ(d.config_hash, m.config_hash);
  EXPECT_EQ(d.first_cell, m.first_cell);
  EXPECT_EQ(d.cell_count, m.cell_count);
  EXPECT_EQ(d.deadline_ms, m.deadline_ms);
  EXPECT_EQ(d.done, m.done);
  EXPECT_EQ(d.job.scenarios, m.job.scenarios);
  ASSERT_EQ(d.job.algos.size(), 1u);
  EXPECT_EQ(d.job.algos[0].name, "ant");
  EXPECT_EQ(d.job.algos[0].gamma, 0.034);
  EXPECT_EQ(d.job.demands, m.job.demands);
  EXPECT_EQ(d.job.seed, m.job.seed);
  EXPECT_EQ(d.job.metrics, m.job.metrics);

  // The done-grant: the "go home" shape every worker exit path relies on.
  LeaseGrant done;
  done.done = 1;
  EXPECT_EQ(round_trip(done).done, 1);
  EXPECT_EQ(round_trip(done).lease_id, 0u);
}

TEST(ProtocolRoundTrip, CellResult) {
  CellResult m;
  m.lease_id = 9;
  m.config_hash = 0xfeedface12345678ULL;
  m.cell = sample_cell(21);
  const CellResult d = round_trip(m);
  EXPECT_EQ(d.lease_id, m.lease_id);
  EXPECT_EQ(d.config_hash, m.config_hash);
  expect_cell_eq(d.cell, m.cell);
}

TEST(ProtocolRoundTrip, LeaseRevoked) {
  const LeaseRevoked m{.lease_id = 5,
                       .reason = "lease deadline passed; cells reissued"};
  const LeaseRevoked d = round_trip(m);
  EXPECT_EQ(d.lease_id, m.lease_id);
  EXPECT_EQ(d.reason, m.reason);
}

TEST(ProtocolRoundTrip, CancelJob) {
  const CancelJob m{.job_id = 0x8000000000000001ULL};
  EXPECT_EQ(round_trip(m).job_id, m.job_id);
}

// Hello handshake damage. ----------------------------------------------------

TEST(ProtocolCorruption, HelloRoundTripsClean) {
  EXPECT_NO_THROW(check_hello(encode_hello()));
}

TEST(ProtocolCorruption, HelloBadMagic) {
  auto hello = encode_hello();
  hello[0] = 'X';
  EXPECT_THROW(check_hello(hello), ProtocolBadMagicError);
}

TEST(ProtocolCorruption, HelloVersionSkew) {
  auto hello = encode_hello();
  hello[6] = static_cast<std::uint8_t>(kNetVersion + 1);
  EXPECT_THROW(check_hello(hello), ProtocolVersionError);
}

TEST(ProtocolCorruption, HelloVersionSkewBeatsGarbageTail) {
  // Version skew is checked before anything frame-shaped: a future-version
  // peer is reported as skew, never as damage.
  auto hello = encode_hello();
  hello[6] = 9;
  hello[7] = 9;
  EXPECT_THROW(check_hello(hello), ProtocolVersionError);
}

TEST(ProtocolCorruption, HelloTruncated) {
  const auto hello = encode_hello();
  EXPECT_THROW(
      check_hello(std::span<const std::uint8_t>(hello).subspan(0, 7)),
      ProtocolTruncatedError);
}

// Frame damage. --------------------------------------------------------------

std::vector<std::uint8_t> sample_frame() {
  return encode_frame(Message{Subscribe{.job_id = 11}}, 3);
}

TEST(ProtocolCorruption, TruncatedFrameMidHeader) {
  auto bytes = sample_frame();
  bytes.resize(kFrameHeaderBytes - 1);
  std::size_t consumed = 0;
  EXPECT_FALSE(try_decode_frame(bytes, &consumed).has_value());
  EXPECT_THROW(decode_frame(bytes), ProtocolTruncatedError);
}

TEST(ProtocolCorruption, TruncatedFrameMidPayload) {
  auto bytes = sample_frame();
  bytes.resize(bytes.size() - kFrameChecksumBytes - 2);
  EXPECT_THROW(decode_frame(bytes), ProtocolTruncatedError);
}

TEST(ProtocolCorruption, TruncatedFrameMissingChecksumWord) {
  auto bytes = sample_frame();
  bytes.resize(bytes.size() - 1);
  std::size_t consumed = 0;
  EXPECT_FALSE(try_decode_frame(bytes, &consumed).has_value());
  EXPECT_THROW(decode_frame(bytes), ProtocolTruncatedError);
}

TEST(ProtocolCorruption, OversizedLength) {
  auto bytes = sample_frame();
  // Rewrite the length field to promise more than the hard bound; the gate
  // must fire from the header alone, before any body bytes exist.
  const std::uint32_t huge = kMaxFramePayload + 1;
  bytes[8] = static_cast<std::uint8_t>(huge);
  bytes[9] = static_cast<std::uint8_t>(huge >> 8);
  bytes[10] = static_cast<std::uint8_t>(huge >> 16);
  bytes[11] = static_cast<std::uint8_t>(huge >> 24);
  bytes.resize(kFrameHeaderBytes);  // no body at all
  EXPECT_THROW(decode_frame(bytes), ProtocolOversizeError);
}

TEST(ProtocolCorruption, ChecksumFlippedPayloadByte) {
  auto bytes = sample_frame();
  bytes[kFrameHeaderBytes] ^= 0x01;
  EXPECT_THROW(decode_frame(bytes), ProtocolChecksumError);
}

TEST(ProtocolCorruption, ChecksumFlippedChecksumByte) {
  auto bytes = sample_frame();
  bytes.back() ^= 0x80;
  EXPECT_THROW(decode_frame(bytes), ProtocolChecksumError);
}

TEST(ProtocolCorruption, UnknownType) {
  // A checksummed, well-framed message whose type is unregistered: framing
  // accepts it (the stream stays parseable), decode_message names the class.
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto bytes = wrap_frame(static_cast<MsgType>(42), 0, payload);
  const Frame frame = decode_frame(bytes);
  EXPECT_THROW(decode_message(frame), ProtocolUnknownTypeError);
}

TEST(ProtocolCorruption, UnknownTypeZero) {
  const auto bytes =
      wrap_frame(static_cast<MsgType>(0), 0, std::vector<std::uint8_t>{});
  EXPECT_THROW(decode_message(decode_frame(bytes)),
               ProtocolUnknownTypeError);
}

// Torn payloads: frames that checksum CLEAN but whose payload internals
// contradict the declared length — encoder/decoder disagreement, distinct
// from transport damage.

TEST(ProtocolCorruption, TornPayloadTrailingBytes) {
  ByteWriter w;
  w.u64(11);   // a valid Subscribe body...
  w.u32(0xab); // ...plus 4 undeclared trailing bytes
  const auto bytes = wrap_frame(MsgType::kSubscribe, 0, w.bytes());
  EXPECT_THROW(decode_message(decode_frame(bytes)),
               ProtocolTornPayloadError);
}

TEST(ProtocolCorruption, TornPayloadInnerLengthOverrun) {
  // A JobRejected whose string length prefix points past the payload end.
  ByteWriter w;
  w.u32(1000);  // "1000 bytes of reason follow" — they do not
  w.u8('x');
  const auto bytes = wrap_frame(MsgType::kJobRejected, 0, w.bytes());
  EXPECT_THROW(decode_message(decode_frame(bytes)),
               ProtocolTornPayloadError);
}

TEST(ProtocolCorruption, TornPayloadShortBody) {
  // A ProgressDelta body cut off halfway through its fields (checksum is
  // over the SHORT body, so it is clean — this is torn, not truncated).
  ByteWriter w;
  w.u64(1);
  w.u64(2);
  const auto bytes = wrap_frame(MsgType::kProgressDelta, 0, w.bytes());
  EXPECT_THROW(decode_message(decode_frame(bytes)),
               ProtocolTornPayloadError);
}

TEST(ProtocolCorruption, TornPayloadUnregisteredEnum) {
  // A MetricDelta whose cell declares engine byte 7 — no such engine.
  ByteWriter w;
  w.u64(9);             // job_id
  w.u64(4);             // cell.flat_index
  w.str("constant");    // scenario
  w.str("ant");         // algo
  w.str("exact");       // noise
  w.u8(7);              // engine: unregistered
  w.u32(0);             // no stats
  const auto bytes = wrap_frame(MsgType::kMetricDelta, 0, w.bytes());
  EXPECT_THROW(decode_message(decode_frame(bytes)),
               ProtocolTornPayloadError);
}

TEST(ProtocolCorruption, TornPayloadLeaseGrantCutBeforeJob) {
  // A LeaseGrant whose payload ends after the fixed fields — the embedded
  // JobSpec is missing entirely. Clean checksum, torn body.
  ByteWriter w;
  w.u64(1);   // lease_id
  w.u64(2);   // config_hash
  w.u64(0);   // first_cell
  w.u64(4);   // cell_count
  w.u64(30);  // deadline_ms
  w.u8(0);    // done
  const auto bytes = wrap_frame(MsgType::kLeaseGrant, 0, w.bytes());
  EXPECT_THROW(decode_message(decode_frame(bytes)), ProtocolTornPayloadError);
}

TEST(ProtocolCorruption, TornPayloadCellResultShortStats) {
  // A CellResult whose cell promises 2 Welford states but carries bytes for
  // none — the inner count overruns the declared payload.
  ByteWriter w;
  w.u64(3);           // lease_id
  w.u64(4);           // config_hash
  w.u64(7);           // cell.flat_index
  w.str("constant");  // scenario
  w.str("ant");       // algo
  w.str("exact");     // noise
  w.u8(0);            // engine
  w.u32(2);           // "2 stats follow" — they do not
  const auto bytes = wrap_frame(MsgType::kCellResult, 0, w.bytes());
  EXPECT_THROW(decode_message(decode_frame(bytes)), ProtocolTornPayloadError);
}

// Hostile counts: a checksum-valid frame whose u32 item count promises
// 0xFFFFFFFF items. Each count site must refuse it as torn before sizing a
// vector from it (a reserve of that many items would throw std::bad_alloc,
// which no ProtocolError handler catches).

constexpr std::uint32_t kHostileCount = 0xFFFFFFFFu;

void expect_hostile_count_refused(MsgType type, const ByteWriter& w) {
  const auto bytes = wrap_frame(type, 0, w.bytes());
  EXPECT_THROW(decode_message(decode_frame(bytes)), ProtocolTornPayloadError);
}

void write_snapshot_head(ByteWriter& w) {
  w.u64(1);   // job_id
  w.u8(0);    // state
  w.u64(2);   // config_hash
  w.u64(10);  // cells_total
  w.i64(3);   // replicates
}

TEST(ProtocolCorruption, HostileCountSnapshotMetricNames) {
  ByteWriter w;
  write_snapshot_head(w);
  w.u32(kHostileCount);  // metric names
  expect_hostile_count_refused(MsgType::kSnapshot, w);
}

TEST(ProtocolCorruption, HostileCountSnapshotCells) {
  ByteWriter w;
  write_snapshot_head(w);
  w.strings({"regret"});
  w.u32(kHostileCount);  // cells
  expect_hostile_count_refused(MsgType::kSnapshot, w);
}

TEST(ProtocolCorruption, HostileCountCellResultStats) {
  ByteWriter w;
  w.u64(3);           // lease_id
  w.u64(4);           // config_hash
  w.u64(7);           // cell.flat_index
  w.str("constant");  // scenario
  w.str("ant");       // algo
  w.str("exact");     // noise
  w.u8(0);            // engine
  w.u32(kHostileCount);
  expect_hostile_count_refused(MsgType::kCellResult, w);
}

TEST(ProtocolCorruption, HostileCountJobAlgos) {
  ByteWriter w;
  w.strings({"constant"});
  w.u32(kHostileCount);  // algos
  expect_hostile_count_refused(MsgType::kSubmitJob, w);
}

TEST(ProtocolCorruption, HostileCountJobDemands) {
  ByteWriter w;
  w.strings({"constant"});
  w.u32(0);       // no algos
  w.u8(0);        // noise kind
  w.f64(0.2);     // lambda
  w.f64(0.02);    // gamma_ad
  w.str("honest");
  w.u32(kHostileCount);  // demands
  expect_hostile_count_refused(MsgType::kSubmitJob, w);
}

TEST(ProtocolCorruption, CountBoundIsExact) {
  // n items of min_item_bytes must fit in what follows the count: 2 × 4
  // bytes in 8 remaining passes, 3 × 4 does not.
  for (const std::uint32_t n : {2u, 3u}) {
    ByteWriter w;
    w.u32(n);
    w.u64(0);
    ByteReader r(w.bytes());
    if (n == 2) {
      EXPECT_EQ(r.count(4), 2u);
    } else {
      EXPECT_THROW(r.count(4), ProtocolTornPayloadError);
    }
  }
}

TEST(ProtocolCorruption, TornPayloadLeaseRevokedTrailingBytes) {
  ByteWriter w;
  w.u64(5);
  w.str("deadline");
  w.u32(0xdead);  // undeclared trailing bytes
  const auto bytes = wrap_frame(MsgType::kLeaseRevoked, 0, w.bytes());
  EXPECT_THROW(decode_message(decode_frame(bytes)), ProtocolTornPayloadError);
}

TEST(ProtocolCorruption, TornPayloadCancelJobShortBody) {
  ByteWriter w;
  w.u32(9);  // CancelJob needs a u64; only 4 bytes arrive
  const auto bytes = wrap_frame(MsgType::kCancelJob, 0, w.bytes());
  EXPECT_THROW(decode_message(decode_frame(bytes)), ProtocolTornPayloadError);
}

TEST(ProtocolCorruption, TypeJustPastCancelJobIsUnknown) {
  // kCancelJob is the registry's last type: the very next value is rejected
  // by the range gate, so extending the variant forces this test to move.
  const auto bytes = wrap_frame(
      static_cast<MsgType>(static_cast<std::uint32_t>(MsgType::kCancelJob) + 1),
      0, std::vector<std::uint8_t>{});
  EXPECT_THROW(decode_message(decode_frame(bytes)), ProtocolUnknownTypeError);
}

TEST(ProtocolCorruption, DamageClassesAreDistinct) {
  // The named classes share only the ProtocolError base — a handler can
  // catch one without swallowing the others.
  const auto as_base = [](const ProtocolError&) {};
  as_base(ProtocolBadMagicError("x"));
  as_base(ProtocolVersionError("x"));
  as_base(ProtocolTruncatedError("x"));
  as_base(ProtocolOversizeError("x"));
  as_base(ProtocolChecksumError("x"));
  as_base(ProtocolTornPayloadError("x"));
  as_base(ProtocolUnknownTypeError("x"));
  as_base(ProtocolIoError("x"));
  EXPECT_FALSE((std::is_base_of_v<ProtocolChecksumError,
                                  ProtocolTornPayloadError>));
  EXPECT_FALSE((std::is_base_of_v<ProtocolTruncatedError,
                                  ProtocolOversizeError>));
}

// Incremental parsing: a byte-at-a-time reader sees nullopt until the exact
// byte that completes the frame, then the same message.
TEST(ProtocolIncremental, ByteAtATime) {
  const auto bytes = encode_frame(
      Message{JobRejected{.reason = "nope"}}, 5);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::size_t consumed = 0;
    EXPECT_FALSE(
        try_decode_frame(std::span(bytes).subspan(0, n), &consumed)
            .has_value())
        << "prefix of " << n << " bytes parsed as complete";
  }
  std::size_t consumed = 0;
  const auto frame = try_decode_frame(bytes, &consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(std::get<JobRejected>(decode_message(*frame)).reason, "nope");
}

// Two frames back to back: consumed points exactly at the boundary.
TEST(ProtocolIncremental, FrameBoundary) {
  auto bytes = encode_frame(Message{Subscribe{.job_id = 1}}, 0);
  const auto second = encode_frame(Message{Subscribe{.job_id = 2}}, 1);
  bytes.insert(bytes.end(), second.begin(), second.end());

  std::size_t consumed = 0;
  const auto first = try_decode_frame(bytes, &consumed);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(std::get<Subscribe>(decode_message(*first)).job_id, 1u);

  std::size_t consumed2 = 0;
  const auto next =
      try_decode_frame(std::span(bytes).subspan(consumed), &consumed2);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(std::get<Subscribe>(decode_message(*next)).job_id, 2u);
  EXPECT_EQ(consumed + consumed2, bytes.size());
}

}  // namespace
}  // namespace antalloc
