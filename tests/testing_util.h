// Shared helpers for the test suite. campaign_test, campaign_schedule_test,
// campaign_metrics_test and the net-layer tests all need a small
// scenario×algo matrix; one parameterized builder here replaces the
// near-identical copies each file used to carry. The named wrappers
// (small_matrix / churn_matrix / metric_matrix) reproduce the historical
// per-file configs EXACTLY — same demands, rounds, seeds, replicates — so
// every number those tests pin is unchanged. The net-layer tests also share
// a raw loopback wire peer (WirePeer / WireListener).
#pragma once

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "noise/sigmoid.h"
#include "sim/campaign.h"
#include "stats/summary.h"

namespace antalloc::test_util {

struct MatrixOptions {
  std::vector<std::string> families = {"constant", "single-shock"};
  std::vector<std::string> algos = {"ant", "trivial"};  // all at gamma 0.05
  std::vector<Count> demands = {120, 80};
  Round rounds = 400;
  Count n_ants = 800;
  std::uint64_t seed = 99;
  std::int64_t replicates = 3;
  double lambda = 1.0;  // sigmoid sharpness of the single noise entry
  std::vector<std::string> metrics = {};
};

// families × {ant, trivial} × one sigmoid noise, uniform starts.
inline CampaignConfig test_matrix(const MatrixOptions& o = {}) {
  const DemandVector base(o.demands);
  CampaignConfig cfg;
  for (const std::string& family : o.families) {
    ScenarioSpec spec;
    spec.name = family;
    spec.initial = InitialKind::kUniform;
    cfg.scenarios.push_back(make_scenario(spec, base, o.rounds));
  }
  for (const std::string& algo : o.algos) {
    cfg.algos.push_back(AlgoConfig{.name = algo, .gamma = 0.05});
  }
  const double lambda = o.lambda;
  cfg.noises = {{"sigmoid",
                 [lambda] { return std::make_unique<SigmoidFeedback>(lambda); }}};
  cfg.n_ants = o.n_ants;
  cfg.rounds = o.rounds;
  cfg.seed = o.seed;
  cfg.replicates = o.replicates;
  cfg.metrics.names = o.metrics;
  return cfg;
}

// campaign_test's 2×2: constant + single-shock, 400 rounds, 3 replicates.
inline CampaignConfig small_matrix() { return test_matrix(); }

// campaign_schedule_test's churn family matrix: uneven per-cell cost (the
// lifecycle scenarios re-plan at every change point) is exactly what work
// stealing reshuffles, so identical numbers mean scheduling is result-free.
inline CampaignConfig churn_matrix() {
  MatrixOptions o;
  o.families = {"task-churn", "constant"};
  o.demands = {Count{120}, Count{80}, Count{60}};
  o.rounds = 300;
  o.n_ants = 600;
  o.seed = 42;
  o.replicates = 4;
  return test_matrix(o);
}

// campaign_metrics_test's matrix with an explicit metric selection.
inline CampaignConfig metric_matrix(std::vector<std::string> metric_selection) {
  MatrixOptions o;
  o.demands = {Count{60}, Count{40}};
  o.rounds = 200;
  o.n_ants = 400;
  o.seed = 13;
  o.replicates = 2;
  o.metrics = std::move(metric_selection);
  return test_matrix(o);
}

// campaign_shard_test's 2×3×1 = 6 cells: even under 3 shards, ragged under
// 5 (6 % 5 = 1).
inline CampaignConfig shard_matrix() {
  MatrixOptions o;
  o.algos = {"ant", "trivial", "sharp-threshold"};
  o.demands = {Count{60}, Count{40}};
  o.rounds = 200;
  o.n_ants = 400;
  o.seed = 7;
  o.replicates = 2;
  return test_matrix(o);
}

// A fresh (pre-wiped) per-test scratch directory under the system temp root.
// The name carries the running test's suite and name plus the process id, so
// test binaries run in parallel (ctest -j) never share, and so never wipe,
// each other's directories even when they pass the same tag. Every directory
// is removed when the process exits, so per-process names do not pile up.
inline std::string make_temp_dir(const std::string& tag) {
  struct RemoveAtExit {
    std::vector<std::filesystem::path> dirs;
    ~RemoveAtExit() {
      std::error_code ignored;
      for (const auto& d : dirs) std::filesystem::remove_all(d, ignored);
    }
  };
  static RemoveAtExit created;
  std::string owner = "antalloc_test_";
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    owner += std::string(info->test_suite_name()) + "." + info->name() + "_";
  }
  owner += std::to_string(::getpid()) + "_" + tag;
  for (char& c : owner) {
    if (c == '/') c = '_';  // parameterized suites/names contain '/'
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / owner;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  created.dirs.push_back(dir);
  return dir.string();
}

// A file's bytes, and a whole-file overwrite: for tests that damage files.
inline std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

inline void write_file_bytes(const std::string& path,
                             const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// Bit-level equality of two Welford accumulators — the "no number changed"
// assertion the campaign determinism and feed reassembly tests share.
inline void expect_stats_identical(const RunningStats& a,
                                   const RunningStats& b) {
  const auto sa = a.state();
  const auto sb = b.state();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.mean, sb.mean);
  EXPECT_EQ(sa.m2, sb.m2);
  EXPECT_EQ(sa.min, sb.min);
  EXPECT_EQ(sa.max, sb.max);
}

// One blocking loopback connection that speaks net/protocol.h frames with
// whatever sequence numbers and bytes the test chooses — the raw side of a
// scripted exchange, below DaemonClient's own framing. A receive that waits
// 30 s throws std::runtime_error, so a peer that never answers fails the
// test instead of hanging it.
class WirePeer {
 public:
  explicit WirePeer(int fd) : fd_(fd) {
    const timeval timeout{.tv_sec = 30, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  WirePeer(WirePeer&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        send_seq_(other.send_seq_),
        inbuf_(std::move(other.inbuf_)) {}
  WirePeer& operator=(WirePeer&&) = delete;
  ~WirePeer() {
    if (fd_ >= 0) ::close(fd_);
  }

  // Connects to a loopback server and swaps hellos.
  static WirePeer connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const sockaddr_in addr = loopback(port);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      if (fd >= 0) ::close(fd);
      throw ProtocolIoError("wire peer: connect failed");
    }
    WirePeer peer(fd);
    peer.exchange_hellos();
    return peer;
  }

  // Ours out, theirs checked.
  void exchange_hellos() {
    write_all(encode_hello());
    std::array<std::uint8_t, kHelloBytes> hello{};
    for (std::size_t got = 0; got < hello.size();) {
      got += read_some(hello.data() + got, hello.size() - got);
    }
    check_hello(hello);
  }

  void write_all(std::span<const std::uint8_t> bytes) {
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw ProtocolIoError("wire peer: send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  // Sends `m` as the next frame in this peer's own sequence.
  void send(const Message& m) { write_all(encode_frame(m, send_seq_++)); }

  // The next decoded frame. Throws ProtocolIoError once the other side has
  // closed the connection.
  Message recv() {
    while (true) {
      std::size_t consumed = 0;
      std::optional<Frame> frame = try_decode_frame(inbuf_, &consumed);
      if (frame.has_value()) {
        inbuf_.erase(inbuf_.begin(),
                     inbuf_.begin() + static_cast<std::ptrdiff_t>(consumed));
        return decode_message(*frame);
      }
      std::uint8_t chunk[4096];
      const std::size_t n = read_some(chunk, sizeof(chunk));
      inbuf_.insert(inbuf_.end(), chunk, chunk + n);
    }
  }

  static sockaddr_in loopback(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
  }

 private:
  std::size_t read_some(std::uint8_t* out, std::size_t len) {
    const ssize_t n = ::recv(fd_, out, len, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw std::runtime_error("wire peer: no data within 30 s");
    }
    throw ProtocolIoError("wire peer: connection closed");
  }

  int fd_ = -1;
  std::uint32_t send_seq_ = 0;
  std::vector<std::uint8_t> inbuf_;
};

// A loopback listener on an ephemeral port: the server side of a scripted
// exchange, e.g. a coordinator that puts a real worker through an exact
// sequence of frames.
class WireListener {
 public:
  WireListener() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = WirePeer::loopback(0);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      throw ProtocolIoError("wire listener: listen failed");
    }
    port_ = ntohs(addr.sin_port);
  }
  WireListener(const WireListener&) = delete;
  WireListener& operator=(const WireListener&) = delete;
  ~WireListener() { ::close(listen_fd_); }

  std::uint16_t port() const { return port_; }

  // Blocks until a peer connects, then swaps hellos.
  WirePeer accept() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) throw ProtocolIoError("wire listener: accept failed");
    WirePeer peer(fd);
    peer.exchange_hellos();
    return peer;
  }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace antalloc::test_util
