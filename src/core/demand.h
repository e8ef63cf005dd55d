// Demand vectors and time-varying demand schedules.
//
// The paper assumes fixed demands but notes (§2.1, Remark 3.4) that all
// results extend to changing demands thanks to self-stabilization; the
// schedule type drives those experiments.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/types.h"

namespace antalloc {

// A fixed demand vector d(1..k). Immutable after construction.
class DemandVector {
 public:
  DemandVector() = default;
  explicit DemandVector(std::vector<Count> demands);

  std::int32_t num_tasks() const { return static_cast<std::int32_t>(d_.size()); }
  Count operator[](TaskId j) const { return d_[static_cast<std::size_t>(j)]; }
  Count total() const { return total_; }
  Count min_demand() const { return min_; }
  Count max_demand() const { return max_; }
  std::span<const Count> values() const { return d_; }

  // Checks Assumptions 2.1: d(j) >= min_log_factor * log2(n) and
  // sum d <= n/2. Returns false (does not throw) so callers can warn.
  bool satisfies_assumptions(Count n_ants, double min_log_factor = 1.0) const;

 private:
  std::vector<Count> d_;
  Count total_ = 0;
  Count min_ = 0;
  Count max_ = 0;
};

// k equal demands of size `demand`.
DemandVector uniform_demands(std::int32_t k, Count demand);

// Which tasks exist during a schedule segment. The task-count capacity
// k_max is fixed when the schedule is built; birth and death toggle
// membership, never the vector size, so every per-task array in the system
// (loads, demands, traces) stays rectangular over k_max. A dormant task is
// active=false — NOT merely d=0: it must carry zero demand (enforced by
// DemandSchedule), holds zero workers (engines flush them to idle at the
// boundary) and feeds back unconditional overload so automata vacate it,
// whereas an active task with d=0 is a live task the noise model still
// answers for.
class ActiveSet {
 public:
  ActiveSet() = default;

  // All k tasks active — the lifecycle-free default.
  static ActiveSet all(std::int32_t k);

  // Explicit membership (flags[j] != 0 = task j active). At least one task
  // must be active: a colony with zero live tasks is not an allocation
  // problem, and an all-dormant segment would silently pin every metric.
  explicit ActiveSet(std::vector<std::uint8_t> flags);

  std::int32_t num_tasks() const {
    return static_cast<std::int32_t>(flags_.size());
  }
  bool operator[](TaskId j) const {
    return flags_[static_cast<std::size_t>(j)] != 0;
  }
  std::int32_t num_active() const;
  bool all_active() const;

  // Bitmask (bit j set = task j active) for the engines that pack per-ant
  // feedback into 64-bit words; requires num_tasks() <= 64.
  std::uint64_t mask64() const;

  friend bool operator==(const ActiveSet&, const ActiveSet&) = default;

 private:
  std::vector<std::uint8_t> flags_;
};

// Piecewise-constant demand schedule: demands_at(t) returns the vector in
// force during round t. Used for demand-shock / self-stabilization runs.
// Each segment also carries the active-task set in force (all tasks, unless
// a lifecycle overload was used), which is how task birth/death enters the
// system: engines compare active_at(t) across rounds and apply retire /
// activate transitions at the boundaries.
class DemandSchedule {
 public:
  // A constant schedule (all tasks active).
  explicit DemandSchedule(DemandVector demands);

  // A constant schedule with an explicit active-task set (task-birth
  // scenarios start with dormant tasks). Inactive tasks must have zero
  // demand in `demands`.
  DemandSchedule(DemandVector demands, ActiveSet active);

  // Adds a change point: from round `start` (inclusive) onward the demands
  // are `demands`. Change points must be added in increasing round order and
  // must preserve the number of tasks. The active set is inherited from the
  // previous segment.
  void add_change(Round start, DemandVector demands);

  // Change point that also changes the active-task set (task birth/death).
  // Inactive tasks must have zero demand in `demands`.
  void add_change(Round start, DemandVector demands, ActiveSet active);

  const DemandVector& demands_at(Round t) const;

  // Active-task set in force during round t (same segment lookup as
  // demands_at).
  const ActiveSet& active_at(Round t) const;

  // Segment-index access for per-round hot loops: one binary search yields
  // the index, and the engines detect lifecycle boundaries by index change
  // instead of re-searching for the active set and deep-comparing it every
  // round. num_segments/segment_start additionally let content fingerprints
  // (campaign config hashes) walk the whole schedule without probing rounds.
  std::size_t num_segments() const { return segments_.size(); }
  Round segment_start(std::size_t index) const {
    return segments_[index].start;
  }
  std::size_t segment_index_at(Round t) const;
  const DemandVector& segment_demands(std::size_t index) const {
    return segments_[index].demands;
  }
  const ActiveSet& segment_active(std::size_t index) const {
    return segments_[index].active;
  }

  // True when any segment has a dormant task; engines skip all lifecycle
  // bookkeeping when false.
  bool has_lifecycle() const { return lifecycle_; }

  std::int32_t num_tasks() const { return segments_.front().demands.num_tasks(); }
  bool is_constant() const { return segments_.size() == 1; }

  // Number of change points after round 0 (0 for a constant schedule).
  std::int64_t num_changes() const {
    return static_cast<std::int64_t>(segments_.size()) - 1;
  }

  // Largest total demand over all segments (for capacity checks).
  Count max_total() const;

  // Round of the last change point (0 for a constant schedule).
  Round last_change() const { return segments_.back().start; }

 private:
  struct Segment {
    Round start;
    DemandVector demands;
    ActiveSet active;
  };
  const Segment& segment_at(Round t) const;

  std::vector<Segment> segments_;
  bool lifecycle_ = false;
};

// Builds a piecewise-constant schedule by sampling a demand process at
// rounds 0, stride, 2·stride, … < horizon. Consecutive equal vectors are
// merged into one segment, so smooth processes stay compact. This is the
// substrate the scenario registry's generated families (ramps, seasonal
// load, correlated shocks) are built on.
DemandSchedule sampled_schedule(
    Round horizon, Round stride,
    const std::function<DemandVector(Round)>& demands_at);

}  // namespace antalloc
