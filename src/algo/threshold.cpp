#include "algo/threshold.h"

#include <stdexcept>

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
  seed_ = seed;
  k_ = k;
  const std::size_t cells =
      static_cast<std::size_t>(n_ants) * static_cast<std::size_t>(k);
  thresholds_.resize(cells);
  // Physical polyethism: each ant's per-task thresholds are innate and drawn
  // once per colony.
  for (std::size_t c = 0; c < cells; ++c) {
    rng::Xoshiro256 gen(rng::hash_combine(seed ^ 0x7e57u, c));
    thresholds_[c] = params_.threshold_lo +
                     gen.uniform() *
                         (params_.threshold_hi - params_.threshold_lo);
  }
  // Neutral initial stimulus estimate (a fair coin is the zero-deficit
  // signature).
  stimulus_.assign(cells, 0.5);
}

void ThresholdAgent::step(Round t, const FeedbackAccess& fb,
                          std::span<const TaskId> prev,
                          std::span<TaskId> next) {
  const auto n = static_cast<std::int64_t>(prev.size());
  const double alpha = params_.smoothing;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    // Update the smoothed lack-frequency estimate for every task (dormant
    // tasks are masked to overload).
    const std::uint64_t lack = fb.sample_lack_mask(i);
    for (TaskId j = 0; j < k_; ++j) {
      const double obs = ((lack >> j) & 1) != 0 ? 1.0 : 0.0;
      double& s = stimulus(i, j);
      s += alpha * (obs - s);
    }
    const TaskId ct = prev[iu];
    TaskId out = ct;
    if (ct == kIdle) {
      // Engage with the active task whose stimulus most exceeds this ant's
      // threshold (if any). Dormant tasks are skipped outright: their stale
      // stimulus decays under the unconditional-overload feedback but must
      // not recruit anyone while it does.
      TaskId best = kIdle;
      double best_excess = 0.0;
      for (TaskId j = 0; j < k_; ++j) {
        if (!fb.active(j)) continue;
        const double excess = stimulus(i, j) - threshold(i, j);
        if (excess > best_excess) {
          best_excess = excess;
          best = j;
        }
      }
      if (best != kIdle) out = best;
    } else if (stimulus(i, ct) <
               threshold(i, ct) - params_.hysteresis) {
      // Disengage once the stimulus has clearly subsided.
      out = kIdle;
    }
    next[iu] = out;
  }
  (void)t;
}

}  // namespace antalloc
