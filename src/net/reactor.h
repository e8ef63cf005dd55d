// The one poll(2) event loop behind every antalloc server: the daemon
// (net/server.h) and the fleet coordinator (orch/coordinator.h) each own a
// Reactor and see only decoded Messages.
//
// ## What the reactor owns
//
// One poll thread owns every socket: the loopback listen socket, a self-pipe
// that other threads write to wake it, and the connection table. It accepts
// connections (TCP_NODELAY, optional SO_SNDBUF, our hello queued first),
// drains each readable socket before parsing it, validates the peer's hello,
// decodes frames, and enforces the inbound sequence contract: frames must
// arrive seq 0, 1, 2, … — a gap means the transport lost or reordered
// something, so the connection closes rather than act on a doubtful stream.
// Any ProtocolError, from the decoder or from a handler, is answered with a
// best-effort ErrorMsg{400} and closes the connection: a damaged stream has
// no reliable resynchronization point.
//
// ## Threads and locks
//
// The Handler's callbacks run on the poll thread with the io mutex NOT
// held, so they may call send_message/reply freely. send_message is also
// the FrameSink feeds publish to from executor threads: it frames the
// payload with the connection's next sequence number, appends it to that
// connection's bounded output queue and flushes what the socket takes now.
// Lock order is feed mutex -> io mutex, never the reverse: the poll thread
// takes the io mutex only for queue flushes and connection table edits.
//
// ## Backpressure
//
// The reactor never blocks on a peer. A connection whose unsent backlog
// exceeds max_queue_bytes is EVICTED: counted, closed, and reported to the
// publisher as kEvicted so feeds drop it (tests/feed_stress_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "net/feed.h"
#include "net/protocol.h"

namespace antalloc {

struct ReactorOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; read back via Reactor::port()
  // Unsent-bytes bound per connection; crossing it evicts the connection.
  std::size_t max_queue_bytes = 4u << 20;
  // When > 0, shrink each connection's kernel send buffer (SO_SNDBUF) so
  // backlog surfaces in the user-space queue.
  int send_buffer_bytes = 0;
};

class Reactor final : public FrameSink {
 public:
  static constexpr int kListenBacklog = 16;

  // The server side of the loop. Every callback runs on the poll thread
  // with the io mutex not held.
  class Handler {
   public:
    virtual ~Handler();
    // One decoded, in-sequence frame. Throwing a ProtocolError answers the
    // peer with ErrorMsg{400} and closes the connection.
    virtual void on_message(std::uint64_t conn_id, const Message& m) = 0;
    // Once per loop iteration, before each poll (200 ms timeout).
    virtual void on_tick() {}
    // After the connection left the table and its socket closed.
    virtual void on_close(std::uint64_t /*conn_id*/) {}
  };

  Reactor(Handler& handler, ReactorOptions opts);
  ~Reactor() override;  // stop()

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Binds, listens (loopback only), and starts the poll thread. Throws
  // ProtocolIoError on any socket failure.
  void start();
  // Stops the poll thread (after one last best-effort flush pass) and
  // closes every socket. Idempotent.
  void stop();
  bool running() const { return running_.load(); }

  // The bound port (after start()).
  std::uint16_t port() const { return port_; }

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

  // FrameSink: any thread. Frames the payload with the connection's next
  // sequence number, queues, and flushes what the socket will take now.
  Send send_message(std::uint64_t conn_id, MsgType type,
                    std::span<const std::uint8_t> payload) override;
  // Encodes and sends one message to one connection.
  void reply(std::uint64_t conn_id, const Message& m);

 private:
  struct Connection;

  void poll_loop();
  void accept_connections();
  // Reads what is available, then parses complete frames and hands them to
  // the handler. Returns false when the connection is done (EOF, damage,
  // I/O error).
  bool service_input(Connection& conn);
  // Flushes conn's queue as far as the socket allows. Caller holds
  // io_mutex_. Returns false when the socket failed (connection is dead).
  bool flush_locked(Connection& conn);
  void close_connection(std::uint64_t conn_id);
  void wake_poll();

  Handler& handler_;
  const ReactorOptions opts_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  std::thread poll_thread_;
  std::atomic<bool> running_{false};

  // Connection table. Structure (insert/erase) changes only on the poll
  // thread, but send_message reads entries from any thread, so every access
  // — including per-connection queue and sequence state — holds io_mutex_.
  mutable std::mutex io_mutex_;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;
  Stats stats_;  // guarded by io_mutex_
};

}  // namespace antalloc
