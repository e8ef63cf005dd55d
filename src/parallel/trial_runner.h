// Replicated-trial runner: executes independent simulation trials across the
// global thread pool with per-trial derived seeds, so a sweep's results are
// identical no matter how many threads run it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "metrics/regret.h"

namespace antalloc {

class ThreadPool;

// Runs `replicates` trials of `trial(index, seed_for_index)` in parallel and
// returns the values in index order. The per-trial seed is
// hash(base_seed, index), independent of scheduling, so results are
// identical for any pool size. `pool` == nullptr uses the process-global
// pool; passing an explicit pool pins the thread count (campaign
// determinism tests rely on this).
std::vector<double> run_trials(
    std::int64_t replicates, std::uint64_t base_seed,
    const std::function<double(std::int64_t, std::uint64_t)>& trial,
    ThreadPool* pool = nullptr);

// Same, collecting full simulation summaries.
std::vector<SimResult> run_sim_trials(
    std::int64_t replicates, std::uint64_t base_seed,
    const std::function<SimResult(std::int64_t, std::uint64_t)>& trial,
    ThreadPool* pool = nullptr);

}  // namespace antalloc
