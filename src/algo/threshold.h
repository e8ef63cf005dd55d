// Response-threshold model: the classic biology-side alternative the paper's
// related work discusses (Beshers & Fewell 2001; Duarte et al. 2012). Each
// ant i carries a personal threshold θ(i,j) per task; it engages with task j
// when the perceived stimulus exceeds its threshold and disengages when the
// stimulus falls well below it. Stimulus here is the fraction of recent
// lack-signals, the natural analogue of "task stimulus" in our feedback
// model.
//
// This is NOT one of the paper's algorithms — it is a comparative baseline
// showing how a heterogeneous-threshold colony behaves under the same noisy
// feedback: thresholds spread the response (avoiding the all-at-once flood
// of the trivial rule) but, lacking the two-sample stable zone, the colony
// equilibrates with a persistent bias and wider wander than Algorithm Ant.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algo/algorithm.h"

namespace antalloc {

struct ThresholdParams {
  // Thresholds are drawn i.i.d. uniform in [lo, hi] per (ant, task).
  double threshold_lo = 0.55;
  double threshold_hi = 0.95;
  // Exponential smoothing factor of the per-ant stimulus estimate.
  double smoothing = 0.2;
  // Hysteresis: disengage when the stimulus falls below θ - hysteresis.
  double hysteresis = 0.25;
};

// One tile of ThresholdAgent::step: up to 64 consecutive ants, whose k
// stimuli and thresholds are stored task-major (task j's 64 ants at
// [j·64, j·64 + 64)). A tile function updates every stimulus of the tile in
// place, s += smoothing·(obs − s) with obs = 1 where the ant's lack bit is
// set, and writes each ant's round-t task to next: an idle ant joins the
// recruiting task with the largest stimulus − threshold above 0 (lowest j
// on a tie), a working ant on ct leaves iff s < θ − hysteresis.
struct ThresholdTile {
  std::span<const std::uint64_t> lack;  // lack masks of the tile's ants
  std::span<const TaskId> prev;         // round t-1 tasks, lack.size()
  std::span<TaskId> next;               // round t tasks, lack.size()
  double* stimulus = nullptr;           // k·64, all 64 lanes updated
  const double* threshold = nullptr;    // k·64
  std::int32_t k = 0;
  // The active tasks; an idle ant joins only these. A dormant task's stale
  // stimulus decays under its unconditional overload but recruits no one.
  std::uint64_t recruiting = 0;
  double smoothing = 0.0;
  double hysteresis = 0.0;
};
using ThresholdTileFn = void (*)(const ThresholdTile& tile);

// The tile body compiled for the baseline ISA and, on x86-64, for
// x86-64-v4 (AVX-512) and x86-64-v3 (AVX2). The library builds with
// -ffp-contract=off, so no wrapper fuses the update into an FMA and all of
// them return the same bits. Callers of v4/v3 must gate on the CPU, as
// kThresholdTile does; tests call each by name.
void threshold_tile_base(const ThresholdTile& tile);

#if defined(__x86_64__) || defined(_M_X64)

[[gnu::target("arch=x86-64-v4")]] void threshold_tile_v4(
    const ThresholdTile& tile);
[[gnu::target("arch=x86-64-v3")]] void threshold_tile_v3(
    const ThresholdTile& tile);

namespace detail {
inline ThresholdTileFn pick_threshold_tile() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return threshold_tile_v4;
  if (__builtin_cpu_supports("x86-64-v3")) return threshold_tile_v3;
  return threshold_tile_base;
}
}  // namespace detail

// The widest tile wrapper this CPU runs, resolved once at startup like
// rng::kLackLane.
inline const ThresholdTileFn kThresholdTile = detail::pick_threshold_tile();

#else

inline const ThresholdTileFn kThresholdTile = threshold_tile_base;

#endif

class ThresholdAgent final : public AgentAlgorithm {
 public:
  explicit ThresholdAgent(ThresholdParams params);

  std::string_view name() const override { return "threshold"; }
  const ThresholdParams& params() const { return params_; }

  void reset(Count n_ants, std::int32_t k, std::span<const TaskId> initial,
             std::uint64_t seed) override;
  void step(Round t, const FeedbackAccess& fb, std::span<const TaskId> prev,
            std::span<TaskId> next) override;
  // step through a given tile wrapper; step uses kThresholdTile.
  void step_with(ThresholdTileFn tile, const FeedbackAccess& fb,
                 std::span<const TaskId> prev, std::span<TaskId> next);

  // Ant i's smoothed lack-frequency estimate for task j, and its threshold.
  double stimulus(std::int64_t ant, TaskId j) const {
    return stimulus_[cell(ant, j)];
  }
  double threshold(std::int64_t ant, TaskId j) const {
    return thresholds_[cell(ant, j)];
  }

 private:
  static constexpr std::size_t kTile = FeedbackAccess::kLackBlock;

  // Cell (i, j) of the tiled layout: (i/64)·k·64 + j·64 + i%64.
  std::size_t cell(std::int64_t ant, TaskId j) const {
    const auto i = static_cast<std::size_t>(ant);
    return (i / kTile * static_cast<std::size_t>(k_) +
            static_cast<std::size_t>(j)) *
               kTile +
           i % kTile;
  }

  ThresholdParams params_;
  std::int32_t k_ = 0;
  // Tiled as cell(), padded to whole tiles: thresholds fixed per colony,
  // stimuli the smoothed lack-frequency estimates.
  std::vector<double> thresholds_;
  std::vector<double> stimulus_;
};

}  // namespace antalloc
