#include "core/demand.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace antalloc {

DemandVector::DemandVector(std::vector<Count> demands) : d_(std::move(demands)) {
  if (d_.empty()) throw std::invalid_argument("DemandVector: empty");
  for (const Count d : d_) {
    if (d < 0) throw std::invalid_argument("DemandVector: negative demand");
  }
  total_ = std::accumulate(d_.begin(), d_.end(), Count{0});
  const auto [lo, hi] = std::minmax_element(d_.begin(), d_.end());
  min_ = *lo;
  max_ = *hi;
}

bool DemandVector::satisfies_assumptions(Count n_ants,
                                         double min_log_factor) const {
  if (n_ants <= 1) return false;
  const double log_n = std::log2(static_cast<double>(n_ants));
  if (static_cast<double>(min_) < min_log_factor * log_n) return false;
  return 2 * total_ <= n_ants;
}

DemandVector uniform_demands(std::int32_t k, Count demand) {
  return DemandVector(std::vector<Count>(static_cast<std::size_t>(k), demand));
}

ActiveSet ActiveSet::all(std::int32_t k) {
  if (k <= 0) throw std::invalid_argument("ActiveSet: k > 0");
  return ActiveSet(std::vector<std::uint8_t>(static_cast<std::size_t>(k), 1));
}

ActiveSet::ActiveSet(std::vector<std::uint8_t> flags)
    : flags_(std::move(flags)) {
  if (flags_.empty()) throw std::invalid_argument("ActiveSet: empty");
  if (num_active() == 0) {
    throw std::invalid_argument("ActiveSet: at least one task must be active");
  }
}

std::int32_t ActiveSet::num_active() const {
  std::int32_t n = 0;
  for (const auto f : flags_) n += f != 0 ? 1 : 0;
  return n;
}

bool ActiveSet::all_active() const { return num_active() == num_tasks(); }

std::uint64_t ActiveSet::mask64() const {
  if (flags_.size() > 64) {
    throw std::invalid_argument("ActiveSet::mask64: more than 64 tasks");
  }
  std::uint64_t mask = 0;
  for (std::size_t j = 0; j < flags_.size(); ++j) {
    if (flags_[j] != 0) mask |= (1ull << j);
  }
  return mask;
}

namespace {

// A dormant task with nonzero demand would accrue phantom regret that no
// algorithm can serve; the lifecycle contract is active=false <=> the task
// is outside the problem, so its demand must be exactly zero.
void check_inactive_demands(const DemandVector& demands,
                            const ActiveSet& active) {
  if (active.num_tasks() != demands.num_tasks()) {
    throw std::invalid_argument(
        "DemandSchedule: active set size must match the task count");
  }
  for (TaskId j = 0; j < demands.num_tasks(); ++j) {
    if (!active[j] && demands[j] != 0) {
      throw std::invalid_argument(
          "DemandSchedule: inactive task " + std::to_string(j) +
          " must have zero demand");
    }
  }
}

}  // namespace

DemandSchedule::DemandSchedule(DemandVector demands) {
  ActiveSet active = ActiveSet::all(demands.num_tasks());
  segments_.push_back({0, std::move(demands), std::move(active)});
}

DemandSchedule::DemandSchedule(DemandVector demands, ActiveSet active) {
  check_inactive_demands(demands, active);
  lifecycle_ = !active.all_active();
  segments_.push_back({0, std::move(demands), std::move(active)});
}

void DemandSchedule::add_change(Round start, DemandVector demands) {
  ActiveSet active = segments_.back().active;
  add_change(start, std::move(demands), std::move(active));
}

void DemandSchedule::add_change(Round start, DemandVector demands,
                                ActiveSet active) {
  if (start <= segments_.back().start) {
    throw std::invalid_argument("DemandSchedule: change points must increase");
  }
  if (demands.num_tasks() != num_tasks()) {
    throw std::invalid_argument("DemandSchedule: task count must not change");
  }
  check_inactive_demands(demands, active);
  lifecycle_ = lifecycle_ || !active.all_active();
  segments_.push_back({start, std::move(demands), std::move(active)});
}

const DemandSchedule::Segment& DemandSchedule::segment_at(Round t) const {
  // Generated schedules (ramps, seasonal load) can carry hundreds of
  // segments, so look up by binary search: the last segment with start <= t.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](Round round, const Segment& seg) { return round < seg.start; });
  return it == segments_.begin() ? segments_.front() : *std::prev(it);
}

const DemandVector& DemandSchedule::demands_at(Round t) const {
  return segment_at(t).demands;
}

const ActiveSet& DemandSchedule::active_at(Round t) const {
  return segment_at(t).active;
}

std::size_t DemandSchedule::segment_index_at(Round t) const {
  return static_cast<std::size_t>(&segment_at(t) - segments_.data());
}

Count DemandSchedule::max_total() const {
  Count best = 0;
  for (const auto& seg : segments_) best = std::max(best, seg.demands.total());
  return best;
}

DemandSchedule sampled_schedule(
    Round horizon, Round stride,
    const std::function<DemandVector(Round)>& demands_at) {
  if (horizon <= 0) throw std::invalid_argument("sampled_schedule: horizon > 0");
  if (stride <= 0) throw std::invalid_argument("sampled_schedule: stride > 0");
  DemandSchedule schedule(demands_at(0));
  for (Round t = stride; t < horizon; t += stride) {
    DemandVector next = demands_at(t);
    const auto& prev = schedule.demands_at(t).values();
    if (!std::equal(prev.begin(), prev.end(), next.values().begin(),
                    next.values().end())) {
      schedule.add_change(t, std::move(next));
    }
  }
  return schedule;
}

}  // namespace antalloc
