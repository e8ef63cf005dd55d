#include "net/protocol.h"

#include <bit>
#include <cstring>

#include "rng/splitmix.h"

namespace antalloc {

namespace {

std::uint64_t frame_checksum(std::span<const std::uint8_t> header_and_payload) {
  return rng::hash_bytes(
      reinterpret_cast<const char*>(header_and_payload.data()),
      header_and_payload.size());
}

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(read_u32le(p)) |
         (static_cast<std::uint64_t>(read_u32le(p + 4)) << 32);
}

void write_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void write_u64le(std::uint8_t* p, std::uint64_t v) {
  write_u32le(p, static_cast<std::uint32_t>(v));
  write_u32le(p + 4, static_cast<std::uint32_t>(v >> 32));
}

// Decodes a wire enum byte into E, throwing the torn-payload error on a
// value outside [0, max] — an unregistered enum is an encoder/decoder
// disagreement, not transport damage.
template <typename E>
E decode_enum(std::uint8_t v, std::uint8_t max, const char* what) {
  if (v > max) {
    throw ProtocolTornPayloadError(std::string("torn payload: ") + what +
                                   " holds unregistered value " +
                                   std::to_string(v));
  }
  return static_cast<E>(v);
}

}  // namespace

// ByteWriter. ----------------------------------------------------------------

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ByteWriter::strings(const std::vector<std::string>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (const std::string& s : v) str(s);
}

// ByteReader. ----------------------------------------------------------------

void ByteReader::need(std::size_t n) const {
  if (pos_ + n > bytes_.size()) {
    throw ProtocolTornPayloadError(
        "torn payload: field needs " + std::to_string(n) + " bytes at offset " +
        std::to_string(pos_) + " but only " +
        std::to_string(bytes_.size() - pos_) + " remain");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      bytes_[pos_] | (static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  const std::uint32_t v = read_u32le(bytes_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  const std::uint64_t v = read_u64le(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::string> ByteReader::strings() {
  const std::uint32_t n = count(4);  // each string is at least its u32 length
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(str());
  return out;
}

std::uint32_t ByteReader::count(std::size_t min_item_bytes) {
  const std::uint32_t n = u32();
  if (n > remaining() / min_item_bytes) {
    throw ProtocolTornPayloadError(
        "torn payload: count " + std::to_string(n) + " of items >= " +
        std::to_string(min_item_bytes) + " bytes, but only " +
        std::to_string(remaining()) + " bytes remain");
  }
  return n;
}

// Handshake. -----------------------------------------------------------------

std::array<std::uint8_t, kHelloBytes> encode_hello() {
  std::array<std::uint8_t, kHelloBytes> hello{};
  std::memcpy(hello.data(), kNetMagic.data(), kNetMagic.size());
  hello[6] = static_cast<std::uint8_t>(kNetVersion);
  hello[7] = static_cast<std::uint8_t>(kNetVersion >> 8);
  return hello;
}

void check_hello(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHelloBytes) {
    throw ProtocolTruncatedError("hello truncated: got " +
                                 std::to_string(bytes.size()) + " of " +
                                 std::to_string(kHelloBytes) + " bytes");
  }
  if (std::memcmp(bytes.data(), kNetMagic.data(), kNetMagic.size()) != 0) {
    throw ProtocolBadMagicError(
        "bad magic: peer did not send the antNET handshake");
  }
  const std::uint16_t version = static_cast<std::uint16_t>(
      bytes[6] | (static_cast<std::uint16_t>(bytes[7]) << 8));
  if (version != kNetVersion) {
    throw ProtocolVersionError("protocol version skew: peer speaks version " +
                               std::to_string(version) + ", this build " +
                               std::to_string(kNetVersion));
  }
}

// Message codecs. ------------------------------------------------------------

namespace {

// Smallest encodings of the repeated items, for ByteReader::count: a Welford
// state (count + 4 doubles), a cell (index, three empty strings, engine,
// zero states) and a JobAlgo (empty name, gamma, epsilon).
constexpr std::size_t kStateBytes = 8 + 4 * 8;
constexpr std::size_t kMinCellBytes = 8 + 3 * 4 + 1 + 4;
constexpr std::size_t kMinAlgoBytes = 4 + 2 * 8;

void encode_state(ByteWriter& w, const RunningStats::State& s) {
  w.i64(s.count);
  w.f64(s.mean);
  w.f64(s.m2);
  w.f64(s.min);
  w.f64(s.max);
}

RunningStats::State decode_state(ByteReader& r) {
  RunningStats::State s;
  s.count = r.i64();
  s.mean = r.f64();
  s.m2 = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  return s;
}

void encode_cell(ByteWriter& w, const CellUpdate& c) {
  w.u64(c.flat_index);
  w.str(c.scenario);
  w.str(c.algo);
  w.str(c.noise);
  w.u8(static_cast<std::uint8_t>(c.engine));
  w.u32(static_cast<std::uint32_t>(c.stats.size()));
  for (const auto& s : c.stats) encode_state(w, s);
}

CellUpdate decode_cell(ByteReader& r) {
  CellUpdate c;
  c.flat_index = r.u64();
  c.scenario = r.str();
  c.algo = r.str();
  c.noise = r.str();
  c.engine = decode_enum<Engine>(r.u8(), 2, "Engine");
  const std::uint32_t n = r.count(kStateBytes);
  c.stats.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) c.stats.push_back(decode_state(r));
  return c;
}

void encode_job(ByteWriter& w, const JobSpec& j) {
  w.strings(j.scenarios);
  w.u32(static_cast<std::uint32_t>(j.algos.size()));
  for (const JobAlgo& a : j.algos) {
    w.str(a.name);
    w.f64(a.gamma);
    w.f64(a.epsilon);
  }
  w.u8(static_cast<std::uint8_t>(j.noise.kind));
  w.f64(j.noise.lambda);
  w.f64(j.noise.gamma_ad);
  w.str(j.noise.adversary);
  w.u32(static_cast<std::uint32_t>(j.demands.size()));
  for (const Count d : j.demands) w.i64(d);
  w.i64(j.n_ants);
  w.i64(j.rounds);
  w.u64(j.seed);
  w.i64(j.replicates);
  w.u8(static_cast<std::uint8_t>(j.engine));
  w.u8(static_cast<std::uint8_t>(j.sampling));
  w.u8(static_cast<std::uint8_t>(j.initial));
  w.f64(j.metrics_gamma);
  w.strings(j.metrics);
}

JobSpec decode_job(ByteReader& r) {
  JobSpec j;
  j.scenarios = r.strings();
  const std::uint32_t n_algos = r.count(kMinAlgoBytes);
  j.algos.reserve(n_algos);
  for (std::uint32_t i = 0; i < n_algos; ++i) {
    JobAlgo a;
    a.name = r.str();
    a.gamma = r.f64();
    a.epsilon = r.f64();
    j.algos.push_back(std::move(a));
  }
  j.noise.kind = decode_enum<NoiseKind>(r.u8(), 2, "NoiseKind");
  j.noise.lambda = r.f64();
  j.noise.gamma_ad = r.f64();
  j.noise.adversary = r.str();
  const std::uint32_t n_demands = r.count(8);  // one i64 each
  j.demands.reserve(n_demands);
  for (std::uint32_t i = 0; i < n_demands; ++i) j.demands.push_back(r.i64());
  j.n_ants = r.i64();
  j.rounds = r.i64();
  j.seed = r.u64();
  j.replicates = r.i64();
  j.engine = decode_enum<Engine>(r.u8(), 2, "Engine");
  j.sampling = decode_enum<SamplingMode>(r.u8(), 1, "SamplingMode");
  j.initial = decode_enum<InitialKind>(r.u8(), 3, "InitialKind");
  j.metrics_gamma = r.f64();
  j.metrics = r.strings();
  return j;
}

struct PayloadEncoder {
  ByteWriter w;

  void operator()(const SubmitJob& m) { encode_job(w, m.job); }
  void operator()(const JobAccepted& m) {
    w.u64(m.job_id);
    w.u64(m.config_hash);
    w.u64(m.total_cells);
    w.i64(m.replicates);
  }
  void operator()(const JobRejected& m) { w.str(m.reason); }
  void operator()(const Subscribe& m) { w.u64(m.job_id); }
  void operator()(const Snapshot& m) {
    w.u64(m.job_id);
    w.u8(static_cast<std::uint8_t>(m.state));
    w.u64(m.config_hash);
    w.u64(m.cells_total);
    w.i64(m.replicates);
    w.strings(m.metrics);
    w.u32(static_cast<std::uint32_t>(m.cells.size()));
    for (const CellUpdate& c : m.cells) encode_cell(w, c);
    w.i64(m.replicates_done);
    w.u64(m.steals);
  }
  void operator()(const MetricDelta& m) {
    w.u64(m.job_id);
    encode_cell(w, m.cell);
  }
  void operator()(const ProgressDelta& m) {
    w.u64(m.job_id);
    w.u64(m.flat_index);
    w.u64(m.cells_done);
    w.u64(m.cells_total);
    w.u64(m.cells_in_flight);
    w.i64(m.replicates_done);
    w.u64(m.steals);
  }
  void operator()(const JobDone& m) {
    w.u64(m.job_id);
    w.u8(m.ok);
    w.u64(m.config_hash);
    w.u64(m.result_checksum);
    w.str(m.error);
  }
  void operator()(const ErrorMsg& m) {
    w.u32(m.code);
    w.str(m.message);
  }
  void operator()(const LeaseRequest& m) { w.str(m.worker); }
  void operator()(const LeaseGrant& m) {
    w.u64(m.lease_id);
    w.u64(m.config_hash);
    w.u64(m.first_cell);
    w.u64(m.cell_count);
    w.u64(m.deadline_ms);
    w.u8(m.done);
    encode_job(w, m.job);
  }
  void operator()(const CellResult& m) {
    w.u64(m.lease_id);
    w.u64(m.config_hash);
    encode_cell(w, m.cell);
  }
  void operator()(const LeaseRevoked& m) {
    w.u64(m.lease_id);
    w.str(m.reason);
  }
  void operator()(const CancelJob& m) { w.u64(m.job_id); }
};

Message decode_payload(MsgType type, ByteReader& r) {
  switch (type) {
    case MsgType::kSubmitJob:
      return SubmitJob{decode_job(r)};
    case MsgType::kJobAccepted: {
      JobAccepted m;
      m.job_id = r.u64();
      m.config_hash = r.u64();
      m.total_cells = r.u64();
      m.replicates = r.i64();
      return m;
    }
    case MsgType::kJobRejected:
      return JobRejected{r.str()};
    case MsgType::kSubscribe:
      return Subscribe{r.u64()};
    case MsgType::kSnapshot: {
      Snapshot m;
      m.job_id = r.u64();
      m.state = decode_enum<JobState>(r.u8(), 2, "JobState");
      m.config_hash = r.u64();
      m.cells_total = r.u64();
      m.replicates = r.i64();
      m.metrics = r.strings();
      const std::uint32_t n = r.count(kMinCellBytes);
      m.cells.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) m.cells.push_back(decode_cell(r));
      m.replicates_done = r.i64();
      m.steals = r.u64();
      return m;
    }
    case MsgType::kMetricDelta: {
      MetricDelta m;
      m.job_id = r.u64();
      m.cell = decode_cell(r);
      return m;
    }
    case MsgType::kProgressDelta: {
      ProgressDelta m;
      m.job_id = r.u64();
      m.flat_index = r.u64();
      m.cells_done = r.u64();
      m.cells_total = r.u64();
      m.cells_in_flight = r.u64();
      m.replicates_done = r.i64();
      m.steals = r.u64();
      return m;
    }
    case MsgType::kJobDone: {
      JobDone m;
      m.job_id = r.u64();
      m.ok = r.u8();
      m.config_hash = r.u64();
      m.result_checksum = r.u64();
      m.error = r.str();
      return m;
    }
    case MsgType::kError: {
      ErrorMsg m;
      m.code = r.u32();
      m.message = r.str();
      return m;
    }
    case MsgType::kLeaseRequest:
      return LeaseRequest{r.str()};
    case MsgType::kLeaseGrant: {
      LeaseGrant m;
      m.lease_id = r.u64();
      m.config_hash = r.u64();
      m.first_cell = r.u64();
      m.cell_count = r.u64();
      m.deadline_ms = r.u64();
      m.done = r.u8();
      m.job = decode_job(r);
      return m;
    }
    case MsgType::kCellResult: {
      CellResult m;
      m.lease_id = r.u64();
      m.config_hash = r.u64();
      m.cell = decode_cell(r);
      return m;
    }
    case MsgType::kLeaseRevoked: {
      LeaseRevoked m;
      m.lease_id = r.u64();
      m.reason = r.str();
      return m;
    }
    case MsgType::kCancelJob:
      return CancelJob{r.u64()};
  }
  throw ProtocolUnknownTypeError("unknown frame type " +
                                 std::to_string(static_cast<std::uint32_t>(
                                     type)));
}

}  // namespace

MsgType message_type(const Message& m) {
  return static_cast<MsgType>(m.index() + 1);  // variant order == MsgType
}

std::vector<std::uint8_t> encode_payload(const Message& m) {
  PayloadEncoder enc;
  std::visit(enc, m);
  return enc.w.take();
}

std::vector<std::uint8_t> wrap_frame(MsgType type, std::uint32_t seq,
                                     std::span<const std::uint8_t> payload,
                                     std::uint32_t flags) {
  std::vector<std::uint8_t> frame(kFrameHeaderBytes + payload.size() +
                                  kFrameChecksumBytes);
  write_u32le(frame.data(), static_cast<std::uint32_t>(type));
  write_u32le(frame.data() + 4, flags);
  write_u32le(frame.data() + 8, static_cast<std::uint32_t>(payload.size()));
  write_u32le(frame.data() + 12, seq);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  const std::uint64_t sum = frame_checksum(
      {frame.data(), kFrameHeaderBytes + payload.size()});
  write_u64le(frame.data() + kFrameHeaderBytes + payload.size(), sum);
  return frame;
}

std::vector<std::uint8_t> encode_frame(const Message& m, std::uint32_t seq,
                                       std::uint32_t flags) {
  return wrap_frame(message_type(m), seq, encode_payload(m), flags);
}

std::optional<Frame> try_decode_frame(std::span<const std::uint8_t> buf,
                                      std::size_t* consumed) {
  if (buf.size() < kFrameHeaderBytes) return std::nullopt;
  const std::uint32_t length = read_u32le(buf.data() + 8);
  // The oversize gate runs as soon as the header is visible: a reader must
  // never wait for (or buffer) a body a damaged length field promises.
  if (length > kMaxFramePayload) {
    throw ProtocolOversizeError(
        "oversized frame: header declares " + std::to_string(length) +
        " payload bytes, bound is " + std::to_string(kMaxFramePayload));
  }
  const std::size_t total =
      kFrameHeaderBytes + length + kFrameChecksumBytes;
  if (buf.size() < total) return std::nullopt;

  const std::uint64_t expect = frame_checksum(
      buf.subspan(0, kFrameHeaderBytes + length));
  const std::uint64_t got =
      read_u64le(buf.data() + kFrameHeaderBytes + length);
  if (expect != got) {
    throw ProtocolChecksumError("frame checksum mismatch");
  }

  Frame frame;
  frame.header.type = static_cast<MsgType>(read_u32le(buf.data()));
  frame.header.flags = read_u32le(buf.data() + 4);
  frame.header.length = length;
  frame.header.seq = read_u32le(buf.data() + 12);
  frame.payload.assign(buf.begin() + kFrameHeaderBytes,
                       buf.begin() + kFrameHeaderBytes + length);
  if (consumed != nullptr) *consumed = total;
  return frame;
}

Frame decode_frame(std::span<const std::uint8_t> buf, std::size_t* consumed) {
  std::size_t used = 0;
  std::optional<Frame> frame = try_decode_frame(buf, &used);
  if (!frame.has_value()) {
    throw ProtocolTruncatedError(
        "truncated frame: buffer holds " + std::to_string(buf.size()) +
        " bytes, a complete frame needs more");
  }
  if (consumed != nullptr) *consumed = used;
  return *std::move(frame);
}

Message decode_message(const Frame& frame) {
  const std::uint32_t raw = static_cast<std::uint32_t>(frame.header.type);
  if (raw < 1 ||
      raw > static_cast<std::uint32_t>(MsgType::kCancelJob)) {
    throw ProtocolUnknownTypeError("unknown frame type " +
                                   std::to_string(raw));
  }
  ByteReader r(frame.payload);
  Message m = decode_payload(frame.header.type, r);
  if (r.consumed() != frame.payload.size()) {
    throw ProtocolTornPayloadError(
        "torn payload: decode consumed " + std::to_string(r.consumed()) +
        " of " + std::to_string(frame.payload.size()) + " declared bytes");
  }
  return m;
}

}  // namespace antalloc
