#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "net/feed.h"
#include "rng/splitmix.h"

namespace antalloc {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw ProtocolIoError(what + ": " + std::strerror(errno));
}

void write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw_errno("send");
  }
}

}  // namespace

DaemonClient::DaemonClient(const std::string& host, std::uint16_t port)
    : DaemonClient(host, port, Options{}) {}

DaemonClient::DaemonClient(const std::string& host, std::uint16_t port,
                           Options opts) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  if (opts.recv_buffer_bytes > 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &opts.recv_buffer_bytes,
                 sizeof(opts.recv_buffer_bytes));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw ProtocolIoError("invalid host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    errno = err;
    throw_errno("connect");
  }

  // Hello exchange: ours out, theirs validated, before any frame.
  try {
    const auto hello = encode_hello();
    write_all(fd_, hello);
    std::array<std::uint8_t, kHelloBytes> peer{};
    std::size_t got = 0;
    while (got < peer.size()) {
      const ssize_t n = ::recv(fd_, peer.data() + got, peer.size() - got, 0);
      if (n > 0) {
        got += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) throw ProtocolTruncatedError("connection closed mid-hello");
      throw_errno("recv");
    }
    check_hello(peer);
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

DaemonClient::~DaemonClient() { close(); }

void DaemonClient::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void DaemonClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void DaemonClient::send(const Message& m) {
  if (fd_ < 0) throw ProtocolIoError("send on closed connection");
  write_all(fd_, encode_frame(m, send_seq_++));
}

Message DaemonClient::recv() {
  if (fd_ < 0) throw ProtocolIoError("recv on closed connection");
  while (true) {
    std::size_t consumed = 0;
    std::optional<Frame> frame = try_decode_frame(
        std::span<const std::uint8_t>(inbuf_).subspan(in_head_), &consumed);
    if (frame.has_value()) {
      in_head_ += consumed;
      if (in_head_ == inbuf_.size()) {
        inbuf_.clear();
        in_head_ = 0;
      }
      if (frame->header.seq != recv_seq_) {
        throw ProtocolError("sequence gap: expected " +
                            std::to_string(recv_seq_) + ", got " +
                            std::to_string(frame->header.seq));
      }
      ++recv_seq_;
      return decode_message(*frame);
    }

    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      inbuf_.insert(inbuf_.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      if (inbuf_.size() > in_head_) {
        throw ProtocolTruncatedError("connection closed mid-frame");
      }
      throw ProtocolIoError("connection closed by peer");
    }
    throw_errno("recv");
  }
}

bool FeedAssembler::fold(const Message& m) {
  if (const auto* snap = std::get_if<Snapshot>(&m)) {
    snapshot_ = *snap;
    for (const CellUpdate& c : snap->cells) cells_[c.flat_index] = c;
  } else if (const auto* delta = std::get_if<MetricDelta>(&m)) {
    cells_[delta->cell.flat_index] = delta->cell;
  } else if (const auto* prog = std::get_if<ProgressDelta>(&m)) {
    progress_ = *prog;
  } else if (const auto* done = std::get_if<JobDone>(&m)) {
    done_ = *done;
  }
  return done();
}

CampaignResult FeedAssembler::result() const {
  if (!snapshot_.has_value()) {
    throw std::logic_error("FeedAssembler::result before a Snapshot arrived");
  }
  CampaignResult out;
  out.metrics = snapshot_->metrics;
  const std::vector<MetricScalar> specs = out.scalar_columns();
  out.cells.reserve(cells_.size());
  for (const auto& [flat_index, u] : cells_) {  // map order == flat order
    out.cells.push_back(cell_from_update(u, specs));
  }
  return out;
}

bool FeedAssembler::verify() const {
  if (!done_.has_value()) return false;
  return rng::hash_string(result().to_csv()) == done_->result_checksum;
}

}  // namespace antalloc
