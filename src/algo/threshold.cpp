#include "algo/threshold.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "rng/splitmix.h"
#include "rng/xoshiro.h"

namespace antalloc {

ThresholdAgent::ThresholdAgent(ThresholdParams params) : params_(params) {
  if (!(params_.threshold_lo > 0.0) ||
      !(params_.threshold_hi > params_.threshold_lo) ||
      params_.threshold_hi > 1.0) {
    throw std::invalid_argument(
        "ThresholdParams: need 0 < lo < hi <= 1 for the threshold range");
  }
  if (!(params_.smoothing > 0.0) || params_.smoothing > 1.0) {
    throw std::invalid_argument("ThresholdParams: smoothing in (0, 1]");
  }
  if (params_.hysteresis < 0.0) {
    throw std::invalid_argument("ThresholdParams: hysteresis >= 0");
  }
}

void ThresholdAgent::reset(Count n_ants, std::int32_t k,
                           std::span<const TaskId> /*initial*/,
                           std::uint64_t seed) {
  if (k > kMaxAgentTasks) {
    throw std::invalid_argument("ThresholdAgent: k exceeds kMaxAgentTasks");
  }
  k_ = k;
  const auto n = static_cast<std::size_t>(n_ants);
  const std::size_t tiles = (n + kTile - 1) / kTile;
  const std::size_t cells = tiles * kTile * static_cast<std::size_t>(k);
  // The lanes past n in the last tile keep these and are never read out.
  thresholds_.assign(cells, params_.threshold_hi);
  // Physical polyethism: each ant's per-task thresholds are innate and drawn
  // once per colony, cell (i, j) from index i·k + j.
  for (std::size_t i = 0; i < n; ++i) {
    for (TaskId j = 0; j < k; ++j) {
      const std::uint64_t c = i * static_cast<std::size_t>(k) +
                              static_cast<std::size_t>(j);
      const double u = rng::Xoshiro256::to_unit(rng::Xoshiro256::first_output(
          rng::hash_combine(seed ^ 0x7e57u, c)));
      thresholds_[cell(static_cast<std::int64_t>(i), j)] =
          params_.threshold_lo +
          u * (params_.threshold_hi - params_.threshold_lo);
    }
  }
  // Neutral initial stimulus estimate (a fair coin is the zero-deficit
  // signature).
  stimulus_.assign(cells, 0.5);
}

void ThresholdAgent::step(Round /*t*/, const FeedbackAccess& fb,
                          std::span<const TaskId> prev,
                          std::span<TaskId> next) {
  step_with(kThresholdTile, fb, prev, next);
}

void ThresholdAgent::step_with(ThresholdTileFn tile, const FeedbackAccess& fb,
                               std::span<const TaskId> prev,
                               std::span<TaskId> next) {
  const auto n = static_cast<std::int64_t>(prev.size());
  const auto every_task = [](std::int64_t) { return ~0ull; };
  // Blocks start at multiples of 64, so block `base` is one whole tile,
  // starting at cell(base, 0).
  fb.for_each_lack_block(
      n, every_task,
      [&](std::int64_t base, std::span<const std::uint64_t> lack) {
        const auto first = static_cast<std::size_t>(base);
        tile({.lack = lack,
              .prev = prev.subspan(first, lack.size()),
              .next = next.subspan(first, lack.size()),
              .stimulus = stimulus_.data() + cell(base, 0),
              .threshold = thresholds_.data() + cell(base, 0),
              .k = k_,
              .recruiting = fb.active_mask(),
              .smoothing = params_.smoothing,
              .hysteresis = params_.hysteresis});
      });
}

namespace {

constexpr std::size_t kLanes = FeedbackAccess::kLackBlock;

// The whole of ThresholdAgent::step for one tile. The ants sit in 64 lanes
// (a short tail tile is padded with idle ants that lack nothing). One pass
// over the tasks updates every lane's stimulus for all k tasks, dormant
// ones included (their lack bit is 0), and folds the join argmax over the
// recruiting tasks from the fresh stimulus; a second pass reads each
// working ant's own task for the leave test. Both are written as selects.
// Fusing the update with the argmax is exact: the decision on task j reads
// only task j's stimulus, and the argmax still visits j in ascending order
// with a strict >, so the lowest j wins a tie as in a per-ant scan.
// Inlined into each target wrapper below, so the compiler vectorizes it
// once per ISA.
[[gnu::always_inline]] inline void tile_body(const ThresholdTile& tile) {
  const std::size_t len = tile.lack.size();
  std::uint64_t lack[kLanes] = {};
  std::int64_t task[kLanes];
  std::fill_n(task, kLanes, std::int64_t{kIdle});
  for (std::size_t a = 0; a < len; ++a) {
    lack[a] = tile.lack[a];
    task[a] = tile.prev[a];
  }

  std::int64_t best[kLanes];
  std::fill_n(best, kLanes, std::int64_t{kIdle});
  double best_excess[kLanes] = {};
  const double alpha = tile.smoothing;
  for (std::int32_t j = 0; j < tile.k; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    const bool recruits = ((tile.recruiting >> j) & 1) != 0;
    double* __restrict s = tile.stimulus + ju * kLanes;
    const double* __restrict theta = tile.threshold + ju * kLanes;
    for (std::size_t a = 0; a < kLanes; ++a) {
      const double obs = ((lack[a] >> j) & 1) != 0 ? 1.0 : 0.0;
      const double sj = s[a] + alpha * (obs - s[a]);
      s[a] = sj;
      const double excess = sj - theta[a];
      const bool better = recruits & (excess > best_excess[a]);
      best_excess[a] = better ? excess : best_excess[a];
      best[a] = better ? j : best[a];
    }
  }

  // An idle lane reads task 0's cell and discards the test.
  std::int64_t out[kLanes];
  for (std::size_t a = 0; a < kLanes; ++a) {
    const std::int64_t ct = task[a];
    const std::size_t own =
        static_cast<std::size_t>(ct < 0 ? 0 : ct) * kLanes + a;
    const bool leave =
        tile.stimulus[own] < tile.threshold[own] - tile.hysteresis;
    out[a] = ct == kIdle ? best[a] : (leave ? kIdle : ct);
  }
  for (std::size_t a = 0; a < len; ++a) {
    tile.next[a] = static_cast<TaskId>(out[a]);
  }
}

}  // namespace

void threshold_tile_base(const ThresholdTile& tile) { tile_body(tile); }

#if defined(__x86_64__) || defined(_M_X64)

[[gnu::target("arch=x86-64-v4")]] void threshold_tile_v4(
    const ThresholdTile& tile) {
  tile_body(tile);
}

[[gnu::target("arch=x86-64-v3")]] void threshold_tile_v3(
    const ThresholdTile& tile) {
  tile_body(tile);
}

#endif

}  // namespace antalloc
