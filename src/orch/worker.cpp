#include "orch/worker.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/feed.h"
#include "net/server.h"
#include "parallel/thread_pool.h"

namespace antalloc {

namespace {

// At most this many leases are held at once: the one draining and the next.
constexpr std::size_t kMaxLeases = 2;

// One lease this worker holds. The watcher registers it the moment its grant
// arrives, so a LeaseRevoked, which follows the grant on the stream, always
// finds it.
struct HeldLease {
  LeaseGrant grant;
  std::atomic<bool> cancel{false};
  bool claimed = false;  // submitted to the executor (WorkerState::mutex)
  bool revoked = false;  // the coordinator revoked it (same guard)
};

// Shared between the dispatching thread, the watcher thread, and the lease
// tasks and progress shippers on executor threads.
struct WorkerState {
  WorkerState(DaemonClient& c, const WorkerOptions& o, std::size_t w)
      : client(c), opts(o), width(w) {}

  DaemonClient& client;
  const WorkerOptions& opts;
  const std::size_t width;  // the executor's width, for the request rule

  // client.send, from the lease tasks and every lease's shipper. The shipped
  // count and the simulated death live under it too, so two leases shipping
  // at once still stop at exactly fail_after_cells.
  std::mutex send_mutex;
  std::uint64_t shipped = 0;
  bool dying = false;

  std::mutex mutex;
  std::condition_variable cv;
  std::list<HeldLease> leases;   // list: stable addresses for the tasks
  bool request_in_flight = false;
  bool done = false;             // a done-grant arrived
  bool closed = false;           // the watcher's recv loop ended
  bool stopping = false;         // error or simulated death: stop claiming
  std::exception_ptr error;      // the first error, rethrown at the end
  std::size_t running = 0;       // lease tasks submitted and not yet settled
  WorkerReport report;           // lease counters (cells_shipped at the end)

  // Cancels every held lease and stops claiming new ones; keeps the first
  // error, if any.
  void stop(std::exception_ptr e = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (e && !error) error = std::move(e);
      stopping = true;
      for (HeldLease& l : leases) l.cancel.store(true);
    }
    cv.notify_all();
  }

  // The request rule: ask for the next lease while fewer than kMaxLeases are
  // held and their replicate tasks cannot keep the executor busy (fewer than
  // twice its width). At most one request is in flight, because the
  // coordinator parks one request per connection.
  void request_if_room() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (request_in_flight || done || closed || stopping ||
          leases.size() >= kMaxLeases) {
        return;
      }
      std::uint64_t tasks = 0;  // replicate tasks: cell_count × replicates
      for (const HeldLease& l : leases) {
        tasks += l.grant.cell_count *
                 static_cast<std::uint64_t>(l.grant.job.replicates);
      }
      if (tasks >= 2 * width) return;
      request_in_flight = true;
    }
    try {
      std::lock_guard<std::mutex> lock(send_mutex);
      client.send(Message{LeaseRequest{.worker = opts.name}});
    } catch (const ProtocolError&) {
      stop(std::current_exception());
    }
  }
};

// Anything but a grant or a revocation is a protocol breach: feeds never
// target a worker — it subscribed to nothing.
std::exception_ptr unexpected_message(const Message& m) {
  if (const auto* err = std::get_if<ErrorMsg>(&m)) {
    return std::make_exception_ptr(
        ProtocolError("coordinator error " + std::to_string(err->code) +
                      ": " + err->message));
  }
  return std::make_exception_ptr(ProtocolError(
      "expected LeaseGrant, got message type " +
      std::to_string(static_cast<std::uint32_t>(message_type(m)))));
}

// The connection's only reader. Grants register their lease and revocations
// cancel theirs right here: frames arrive mid-campaign, and a revocation must
// interrupt, not queue behind a running lease.
void watch_connection(WorkerState& state) {
  try {
    while (true) {
      Message m = state.client.recv();
      if (!std::holds_alternative<LeaseGrant>(m) &&
          !std::holds_alternative<LeaseRevoked>(m)) {
        state.stop(unexpected_message(m));
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        if (auto* grant = std::get_if<LeaseGrant>(&m)) {
          // A done-grant may also be pushed unasked (the coordinator
          // broadcasts completion), so it clears the flag either way.
          state.request_in_flight = false;
          if (grant->done != 0) {
            state.done = true;
          } else {
            state.leases.emplace_back(std::move(*grant));
          }
        } else {
          // A stale revocation of a lease already finished is ignored.
          const std::uint64_t id = std::get<LeaseRevoked>(m).lease_id;
          for (HeldLease& l : state.leases) {
            if (l.grant.lease_id == id) {
              l.revoked = true;
              l.cancel.store(true);
            }
          }
        }
      }
      state.cv.notify_all();
    }
  } catch (const ProtocolError&) {
    // EOF, shutdown(), or damage — either way this stream is over; the
    // dispatcher finds out through `closed`.
  }
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.closed = true;
  }
  state.cv.notify_all();
}

// CampaignProgress that ships each folded cell immediately. Callbacks are
// serialized within one campaign but arrive on executor threads, and two
// leases' campaigns ship concurrently.
class CellShipper final : public CampaignProgress {
 public:
  CellShipper(WorkerState& state, HeldLease& lease)
      : state_(state), lease_(lease) {}

  void on_cell_done(const Update& update) override {
    if (update.cell == nullptr) return;
    CellResult res;
    res.lease_id = lease_.grant.lease_id;
    res.config_hash = lease_.grant.config_hash;
    res.cell = cell_update_from(*update.cell);
    const std::size_t fail_after = state_.opts.fail_after_cells;
    {
      std::lock_guard<std::mutex> lock(state_.send_mutex);
      if (state_.dying) return;
      try {
        state_.client.send(Message{std::move(res)});
      } catch (const ProtocolError&) {
        // Coordinator gone mid-ship: stop this run cooperatively; the
        // dispatcher surfaces the dead connection. Never throw through the
        // campaign's fold path.
        lease_.cancel.store(true);
        return;
      }
      ++state_.shipped;
      if (fail_after == 0 || state_.shipped < fail_after) return;
      state_.dying = true;
    }
    // Simulated death: stop computing NOW and leave every lease unfinished.
    state_.stop();
  }

 private:
  WorkerState& state_;
  HeldLease& lease_;
};

// The campaign of the most recent job, built and hashed once per distinct
// JobSpec (compared by its wire encoding) instead of once per lease.
class JobCache {
 public:
  // The grant's campaign with the lease's cells as an explicit-cell shard.
  CampaignConfig lease_config(const LeaseGrant& grant) {
    std::vector<std::uint8_t> job_bytes =
        encode_payload(Message{SubmitJob{.job = grant.job}});
    if (config_ == nullptr || job_bytes != job_bytes_) {
      config_ = std::make_unique<CampaignConfig>(campaign_from_job(grant.job));
      hash_ = campaign_config_hash(*config_);
      job_bytes_ = std::move(job_bytes);
    }
    // The numbers this worker is about to contribute must come from the
    // campaign the coordinator merges.
    if (hash_ != grant.config_hash) {
      throw ProtocolError(
          "lease grant config hash mismatch: coordinator and worker "
          "disagree on the campaign (version skew?)");
    }
    CampaignConfig cfg = *config_;
    cfg.shard.cells.resize(grant.cell_count);
    std::iota(cfg.shard.cells.begin(), cfg.shard.cells.end(),
              static_cast<std::size_t>(grant.first_cell));
    return cfg;
  }

 private:
  std::vector<std::uint8_t> job_bytes_;
  std::unique_ptr<CampaignConfig> config_;
  std::uint64_t hash_ = 0;
};

// The next granted lease to submit, or nullptr once there is nothing more to
// claim (done, simulated death, or an error).
HeldLease* claim_next(WorkerState& state) {
  std::unique_lock<std::mutex> lock(state.mutex);
  while (true) {
    if (state.stopping || state.done) return nullptr;
    if (state.closed) throw ProtocolIoError("coordinator connection lost");
    for (HeldLease& l : state.leases) {
      if (!l.claimed) {
        l.claimed = true;
        return &l;
      }
    }
    state.cv.wait(lock);
  }
}

// One lease, run as one executor task (the daemon runs its jobs the same
// way): its replicate tasks nest under it, and the thread that runs it helps
// with them, so the leases in flight compute on exactly the executor's
// threads.
void run_lease(WorkerState& state, CampaignConfig& cfg, HeldLease& lease) {
  CellShipper shipper(state, lease);
  cfg.progress = &shipper;
  cfg.cancel = &lease.cancel;
  // The lease is running: ask for the next one now if this one alone cannot
  // keep the executor busy through its last replicates.
  state.request_if_room();

  bool completed = false;
  try {
    run_campaign(cfg);
    completed = true;
  } catch (const CampaignCancelledError&) {
    // Revoked, simulated death, or a dead connection: which one is settled
    // below and by the dispatcher.
  } catch (...) {
    state.stop(std::current_exception());
  }
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (completed) {
      ++state.report.leases_completed;
    } else if (lease.revoked) {
      ++state.report.leases_revoked;
    }
    state.leases.remove_if([&](const HeldLease& l) { return &l == &lease; });
  }
  state.request_if_room();
  // Notified under the lock: once `running` reads 0, run_worker may return
  // and destroy the state.
  std::lock_guard<std::mutex> lock(state.mutex);
  --state.running;
  state.cv.notify_all();
}

}  // namespace

WorkerReport run_worker(const std::string& host, std::uint16_t port,
                        const WorkerOptions& opts) {
  DaemonClient client(host, port);
  TaskGraph& graph =
      (opts.pool != nullptr ? *opts.pool : global_pool()).graph();
  WorkerState state(client, opts, graph.size());
  JobCache jobs;
  std::thread watcher([&state] { watch_connection(state); });

  // This thread dispatches: it claims each granted lease, builds its config
  // and submits it; the lease tasks settle their own slots.
  state.request_if_room();
  try {
    while (HeldLease* lease = claim_next(state)) {
      auto cfg =
          std::make_shared<CampaignConfig>(jobs.lease_config(lease->grant));
      cfg->pool = opts.pool;
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        ++state.running;
      }
      graph.submit([&state, cfg, lease] { run_lease(state, *cfg, *lease); });
    }
  } catch (...) {
    state.stop(std::current_exception());
  }
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.cv.wait(lock, [&state] { return state.running == 0; });
  }

  // Drop the connection — for a simulated death that IS the observable event
  // the coordinator reacts to: it releases every lease this worker held.
  client.shutdown();
  watcher.join();
  if (state.error) std::rethrow_exception(state.error);
  WorkerReport report = state.report;
  report.cells_shipped = state.shipped;
  report.died = state.dying;
  return report;
}

}  // namespace antalloc
