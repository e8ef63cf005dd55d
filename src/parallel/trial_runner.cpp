#include "parallel/trial_runner.h"

#include "parallel/thread_pool.h"
#include "rng/splitmix.h"

namespace antalloc {

std::vector<double> run_trials(
    std::int64_t replicates, std::uint64_t base_seed,
    const std::function<double(std::int64_t, std::uint64_t)>& trial,
    ThreadPool* pool) {
  std::vector<double> results(static_cast<std::size_t>(replicates), 0.0);
  parallel_for(pool != nullptr ? *pool : global_pool(), 0, replicates,
               [&](std::int64_t i) {
                 const std::uint64_t seed =
                     rng::hash_combine(base_seed, static_cast<std::uint64_t>(i));
                 results[static_cast<std::size_t>(i)] = trial(i, seed);
               });
  return results;
}

std::vector<SimResult> run_sim_trials(
    std::int64_t replicates, std::uint64_t base_seed,
    const std::function<SimResult(std::int64_t, std::uint64_t)>& trial,
    ThreadPool* pool) {
  std::vector<SimResult> results(static_cast<std::size_t>(replicates));
  parallel_for(pool != nullptr ? *pool : global_pool(), 0, replicates,
               [&](std::int64_t i) {
                 const std::uint64_t seed =
                     rng::hash_combine(base_seed, static_cast<std::uint64_t>(i));
                 results[static_cast<std::size_t>(i)] = trial(i, seed);
               });
  return results;
}

}  // namespace antalloc
