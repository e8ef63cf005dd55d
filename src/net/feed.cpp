#include "net/feed.h"

#include <utility>

#include "rng/splitmix.h"

namespace antalloc {

FrameSink::~FrameSink() = default;

CellUpdate cell_update_from(const CampaignCell& cell) {
  CellUpdate u;
  u.flat_index = cell.flat_index;
  u.scenario = cell.scenario;
  u.algo = cell.algo;
  u.noise = cell.noise;
  u.engine = cell.engine;
  u.stats.reserve(cell.metric_stats.size());
  for (const RunningStats& s : cell.metric_stats) u.stats.push_back(s.state());
  return u;
}

CampaignCell cell_from_update(const CellUpdate& u,
                              std::span<const MetricScalar> specs) {
  CampaignCell cell;
  cell.flat_index = static_cast<std::size_t>(u.flat_index);
  cell.scenario = u.scenario;
  cell.algo = u.algo;
  cell.noise = u.noise;
  cell.engine = u.engine;
  cell.metric_stats.reserve(u.stats.size());
  for (const RunningStats::State& s : u.stats) {
    cell.metric_stats.push_back(RunningStats::from_state(s));
  }
  cell.fill_legacy_views(specs);
  return cell;
}

JobFeed::JobFeed(FrameSink* sink, std::uint64_t job_id,
                 std::uint64_t config_hash, std::uint64_t cells_total,
                 std::int64_t replicates, std::vector<std::string> metrics)
    : sink_(sink),
      job_id_(job_id),
      config_hash_(config_hash),
      cells_total_(cells_total),
      replicates_(replicates),
      metrics_(std::move(metrics)) {}

void JobFeed::on_cell_done(const Update& update) {
  std::lock_guard<std::mutex> lock(mutex_);
  replicates_done_ = update.replicates_done;
  steals_ = update.steals;
  if (update.cell != nullptr) {
    folded_.push_back(cell_update_from(*update.cell));

    MetricDelta md;
    md.job_id = job_id_;
    md.cell = folded_.back();
    fan_out(Message{std::move(md)});
  }

  ProgressDelta pd;
  pd.job_id = job_id_;
  pd.flat_index = update.flat_index;
  pd.cells_done = update.cells_done;
  pd.cells_total = update.cells_total;
  pd.cells_in_flight = update.cells_in_flight;
  pd.replicates_done = update.replicates_done;
  pd.steals = update.steals;
  fan_out(Message{pd});
}

void JobFeed::subscribe(std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mutex_);

  Snapshot snap;
  snap.job_id = job_id_;
  snap.state = state_;
  snap.config_hash = config_hash_;
  snap.cells_total = cells_total_;
  snap.replicates = replicates_;
  snap.metrics = metrics_;
  snap.cells = folded_;
  snap.replicates_done = replicates_done_;
  snap.steals = steals_;

  const std::vector<std::uint8_t> payload =
      encode_payload(Message{std::move(snap)});
  if (sink_->send_message(conn_id, MsgType::kSnapshot, payload) !=
      FrameSink::Send::kOk) {
    return;  // already gone — never registered
  }

  if (state_ != JobState::kRunning) {
    // Finished job: the snapshot is already complete; replay the terminal
    // frame and do not register (there will be no further deltas).
    const std::vector<std::uint8_t> done = encode_payload(Message{done_msg_});
    sink_->send_message(conn_id, MsgType::kJobDone, done);
    return;
  }
  subscribers_.push_back(conn_id);
}

void JobFeed::finish(const CampaignResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = JobState::kDone;
  done_msg_ = JobDone{};
  done_msg_.job_id = job_id_;
  done_msg_.ok = 1;
  done_msg_.config_hash = config_hash_;
  done_msg_.result_checksum = rng::hash_string(result.to_csv());
  fan_out(Message{done_msg_});
  subscribers_.clear();  // the stream is over; later subscribers replay
}

void JobFeed::fail(const std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = JobState::kFailed;
  done_msg_ = JobDone{};
  done_msg_.job_id = job_id_;
  done_msg_.ok = 0;
  done_msg_.config_hash = config_hash_;
  done_msg_.error = error;
  fan_out(Message{done_msg_});
  subscribers_.clear();
}

bool JobFeed::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_ != JobState::kRunning;
}

std::size_t JobFeed::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return subscribers_.size();
}

void JobFeed::fan_out(const Message& m) {
  if (subscribers_.empty()) return;
  const MsgType type = message_type(m);
  const std::vector<std::uint8_t> payload = encode_payload(m);
  std::size_t keep = 0;
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    if (sink_->send_message(subscribers_[i], type, payload) ==
        FrameSink::Send::kOk) {
      subscribers_[keep++] = subscribers_[i];
    }
  }
  subscribers_.resize(keep);
}

}  // namespace antalloc
