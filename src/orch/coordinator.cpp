#include "orch/coordinator.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "net/server.h"

namespace antalloc {

std::int64_t CoordinatorServer::now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CoordinatorServer::CoordinatorServer(CoordinatorOptions opts)
    : opts_(std::move(opts)),
      config_(campaign_from_job(opts_.job)),
      config_hash_(campaign_config_hash(config_)),
      total_cells_(campaign_total_cells(config_)),
      metrics_(resolve_metric_names(config_.metrics.names)),
      specs_(metric_scalar_columns(metrics_)),
      reactor_(*this, ReactorOptions{.port = opts_.port}),
      table_(total_cells_, opts_.lease),
      merger_(total_cells_, metrics_,
              IncrementalMerger::Duplicates::kVerifyEqual),
      feed_(&reactor_, kCoordinatorJobId, config_hash_, total_cells_,
            config_.replicates, metrics_) {
  if (!opts_.journal_path.empty()) {
    journal_ = std::make_unique<CellJournal>(opts_.journal_path, config_hash_,
                                             metrics_, total_cells_,
                                             config_.replicates);
    for (const CampaignCell& cell : journal_->recovered()) {
      merger_.add(cell);
      table_.mark_done(cell.flat_index);
      ++stats_.cells_recovered;

      CampaignProgress::Update u;
      u.flat_index = cell.flat_index;
      u.cells_done = table_.cells_done();
      u.cells_total = total_cells_;
      u.cells_in_flight = 0;
      u.replicates_done =
          static_cast<std::int64_t>(table_.cells_done()) * config_.replicates;
      u.cell = &cell;
      feed_.on_cell_done(u);
    }
    // A journal can already hold the whole matrix (restart after the final
    // append but before the exit) — then there is nothing to lease.
    if (table_.all_done()) finalize();
  }
}

CoordinatorServer::~CoordinatorServer() { stop(); }

void CoordinatorServer::start() { reactor_.start(); }

void CoordinatorServer::stop() {
  if (!reactor_.running()) return;
  reactor_.stop();

  // Unblock wait_done(): a coordinator stopped mid-campaign reports failure
  // rather than hanging its driver. The journal (when configured) already
  // holds every folded cell, so a restart resumes where this run stopped.
  {
    std::lock_guard<std::mutex> done_lock(done_mutex_);
    if (!done_) {
      done_ = true;
      error_ = "coordinator stopped before the campaign completed";
    }
  }
  done_cv_.notify_all();
}

bool CoordinatorServer::wait_done() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] { return done_; });
  return error_.empty();
}

bool CoordinatorServer::done() const {
  std::lock_guard<std::mutex> lock(done_mutex_);
  return done_;
}

std::string CoordinatorServer::error() const {
  std::lock_guard<std::mutex> lock(done_mutex_);
  return error_;
}

const CampaignResult& CoordinatorServer::result() const {
  std::lock_guard<std::mutex> lock(done_mutex_);
  if (!done_ || !error_.empty()) {
    throw std::logic_error("CoordinatorServer::result before completion");
  }
  return result_;
}

CoordinatorServer::Stats CoordinatorServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

// Command core (poll thread). ------------------------------------------------

void CoordinatorServer::on_message(std::uint64_t conn_id, const Message& m) {
  if (std::holds_alternative<LeaseRequest>(m)) {
    handle_lease_request(conn_id);
  } else if (const auto* res = std::get_if<CellResult>(&m)) {
    handle_cell_result(conn_id, *res);
  } else if (const auto* sub = std::get_if<Subscribe>(&m)) {
    if (sub->job_id != kCoordinatorJobId) {
      reactor_.reply(conn_id,
                     Message{ErrorMsg{.code = 404,
                                      .message = "unknown job id " +
                                                 std::to_string(sub->job_id)}});
      return;
    }
    feed_.subscribe(conn_id);
  } else {
    reactor_.reply(
        conn_id,
        Message{ErrorMsg{.code = 405,
                         .message = "unexpected message type at coordinator"}});
  }
}

void CoordinatorServer::handle_lease_request(std::uint64_t conn_id) {
  if (std::find(worker_conns_.begin(), worker_conns_.end(), conn_id) ==
      worker_conns_.end()) {
    worker_conns_.push_back(conn_id);
  }
  if (done()) {
    send_grant(conn_id, std::nullopt);
    return;
  }
  const std::optional<Lease> lease = table_.grant(now_ms());
  if (!lease.has_value()) {
    // Everything is out on live leases: park the request; a completion,
    // expiry, or worker death will answer it.
    if (std::find(pending_.begin(), pending_.end(), conn_id) ==
        pending_.end()) {
      pending_.push_back(conn_id);
    }
    return;
  }
  lease_conn_[lease->id] = conn_id;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.leases_granted;
  }
  send_grant(conn_id, lease);
}

void CoordinatorServer::send_grant(std::uint64_t conn_id,
                                   const std::optional<Lease>& lease) {
  LeaseGrant g;
  if (!lease.has_value()) {
    g.done = 1;
  } else {
    g.lease_id = lease->id;
    g.config_hash = config_hash_;
    g.first_cell = lease->first_cell;
    g.cell_count = lease->cell_count;
    g.deadline_ms =
        static_cast<std::uint64_t>(lease->deadline_ms - lease->issued_ms);
    g.job = opts_.job;
  }
  const std::vector<std::uint8_t> payload =
      encode_payload(Message{std::move(g)});
  const FrameSink::Send sent =
      reactor_.send_message(conn_id, MsgType::kLeaseGrant, payload);
  if (sent != FrameSink::Send::kOk && lease.has_value()) {
    // Granted into a void — put the cells straight back.
    table_.release(lease->id);
    lease_conn_.erase(lease->id);
  }
}

void CoordinatorServer::handle_cell_result(std::uint64_t conn_id,
                                           const CellResult& res) {
  if (done()) return;  // a straggler finishing after finalize: nothing left
  if (res.config_hash != config_hash_) {
    reactor_.reply(
        conn_id,
        Message{ErrorMsg{.code = 409,
                         .message = "config hash mismatch: worker computed "
                                    "a different campaign"}});
    return;
  }
  if (res.cell.flat_index >= total_cells_ ||
      res.cell.stats.size() != specs_.size()) {
    throw ProtocolTornPayloadError("CellResult shape contradicts campaign");
  }
  fold_cell(cell_from_update(res.cell, specs_));
}

void CoordinatorServer::fold_cell(CampaignCell cell) {
  const std::size_t idx = cell.flat_index;
  bool fresh = false;
  try {
    fresh = merger_.add(cell);
  } catch (const std::invalid_argument& e) {
    // kVerifyEqual only throws on a MISMATCHED duplicate: two computations
    // of one cell disagreed, the determinism contract is broken, and no
    // merged number is trustworthy.
    fail_campaign(e.what());
    return;
  }
  const std::int64_t t = now_ms();
  if (fresh) {
    if (journal_ != nullptr) journal_->append(cell);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.cells_folded;
  } else {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.duplicates_verified;
  }
  // Lease completion runs for duplicates too: the cell is done no matter
  // which worker raced it in.
  for (const std::uint64_t lease_id : table_.complete(idx, t)) {
    lease_conn_.erase(lease_id);
  }
  if (fresh) {
    CampaignProgress::Update u;
    u.flat_index = idx;
    u.cells_done = table_.cells_done();
    u.cells_total = total_cells_;
    u.cells_in_flight =
        total_cells_ - table_.cells_done() - table_.cells_pending();
    u.replicates_done =
        static_cast<std::int64_t>(table_.cells_done()) * config_.replicates;
    u.cell = &cell;
    feed_.on_cell_done(u);
  }
  if (table_.all_done()) {
    finalize();
    broadcast_done();
  }
}

void CoordinatorServer::broadcast_done() {
  // Answering done-grants only on request leaves a window: a worker that
  // just shipped its last cell sends its next LeaseRequest while the driver,
  // woken by wait_done(), is already stopping the server — and a cleanly
  // finished worker dies on a lost connection. Pushing the grant at every
  // known worker closes it; the worker's mailbox holds the push until its
  // next request-wait, and any request crossing it on the wire is answered
  // with a second done-grant that simply goes unread.
  pending_.clear();
  for (const std::uint64_t conn_id : worker_conns_) {
    send_grant(conn_id, std::nullopt);
  }
}

void CoordinatorServer::serve_pending(std::int64_t now) {
  if (pending_.empty()) return;
  std::vector<std::uint64_t> waiting = std::move(pending_);
  pending_.clear();
  const bool over = done();
  for (std::size_t i = 0; i < waiting.size(); ++i) {
    const std::uint64_t conn_id = waiting[i];
    if (over) {
      send_grant(conn_id, std::nullopt);
      continue;
    }
    const std::optional<Lease> lease = table_.grant(now);
    if (!lease.has_value()) {
      // Out of grantable cells again — everyone left stays parked.
      pending_.insert(pending_.end(), waiting.begin() + i, waiting.end());
      return;
    }
    lease_conn_[lease->id] = conn_id;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.leases_granted;
    }
    send_grant(conn_id, lease);
  }
}

void CoordinatorServer::release_worker_leases(std::uint64_t conn_id) {
  std::vector<std::uint64_t> owned;
  for (const auto& [lease_id, holder] : lease_conn_) {
    if (holder == conn_id) owned.push_back(lease_id);
  }
  for (const std::uint64_t lease_id : owned) {
    table_.release(lease_id);
    lease_conn_.erase(lease_id);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.leases_released;
  }
  if (!owned.empty()) serve_pending(now_ms());
}

void CoordinatorServer::sweep_deadlines(std::int64_t now) {
  const std::vector<Lease> expired = table_.expire(now);
  if (expired.empty()) return;
  for (const Lease& lease : expired) {
    auto it = lease_conn_.find(lease.id);
    if (it != lease_conn_.end()) {
      LeaseRevoked revoked;
      revoked.lease_id = lease.id;
      revoked.reason = "lease deadline passed; cells reissued";
      const std::vector<std::uint8_t> payload =
          encode_payload(Message{std::move(revoked)});
      reactor_.send_message(it->second, MsgType::kLeaseRevoked, payload);
      lease_conn_.erase(it);
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.leases_expired;
  }
  serve_pending(now);
}

void CoordinatorServer::finalize() {
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    if (done_) return;
    result_ = merger_.take();
    done_ = true;
  }
  feed_.finish(result_);
  done_cv_.notify_all();
}

void CoordinatorServer::fail_campaign(const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    if (done_) return;
    error_ = why;
    done_ = true;
  }
  feed_.fail(why);
  done_cv_.notify_all();
  broadcast_done();  // send every worker home
}

void CoordinatorServer::on_close(std::uint64_t conn_id) {
  pending_.erase(std::remove(pending_.begin(), pending_.end(), conn_id),
                 pending_.end());
  worker_conns_.erase(
      std::remove(worker_conns_.begin(), worker_conns_.end(), conn_id),
      worker_conns_.end());
  release_worker_leases(conn_id);
}

}  // namespace antalloc
