#include "core/allocation.h"

#include <numeric>
#include <stdexcept>
#include <string>

#include "rng/multinomial.h"
#include "rng/xoshiro.h"

namespace antalloc {

Allocation Allocation::all_idle(Count n_ants, std::int32_t k) {
  if (n_ants < 0 || k <= 0) {
    throw std::invalid_argument("Allocation: need n >= 0 and k > 0");
  }
  return Allocation(n_ants, std::vector<Count>(static_cast<std::size_t>(k), 0));
}

Allocation::Allocation(Count n_ants, std::vector<Count> loads)
    : n_(n_ants), loads_(std::move(loads)) {
  if (loads_.empty()) throw std::invalid_argument("Allocation: empty loads");
  Count assigned = 0;
  for (const Count w : loads_) {
    if (w < 0) throw std::invalid_argument("Allocation: negative load");
    assigned += w;
  }
  if (assigned > n_) {
    throw std::invalid_argument("Allocation: loads exceed colony size");
  }
  idle_ = n_ - assigned;
}

void Allocation::join(TaskId j, Count count) {
  if (count < 0 || count > idle_) {
    throw std::invalid_argument("Allocation::join: bad count");
  }
  loads_[static_cast<std::size_t>(j)] += count;
  idle_ -= count;
}

void Allocation::leave(TaskId j, Count count) {
  auto& w = loads_[static_cast<std::size_t>(j)];
  if (count < 0 || count > w) {
    throw std::invalid_argument("Allocation::leave: bad count");
  }
  w -= count;
  idle_ += count;
}

Count Allocation::flush_to_idle(TaskId j) {
  auto& w = loads_[static_cast<std::size_t>(j)];
  const Count moved = w;
  w = 0;
  idle_ += moved;
  return moved;
}

Count Allocation::retire_inactive(const ActiveSet& active) {
  if (active.num_tasks() != num_tasks()) {
    throw std::invalid_argument("Allocation::retire_inactive: wrong task count");
  }
  Count moved = 0;
  for (TaskId j = 0; j < num_tasks(); ++j) {
    if (!active[j]) moved += flush_to_idle(j);
  }
  return moved;
}

void Allocation::set_loads(std::span<const Count> loads) {
  if (loads.size() != loads_.size()) {
    throw std::invalid_argument("Allocation::set_loads: wrong task count");
  }
  Count assigned = 0;
  for (const Count w : loads) {
    if (w < 0) throw std::invalid_argument("Allocation::set_loads: negative");
    assigned += w;
  }
  if (assigned > n_) {
    throw std::invalid_argument("Allocation::set_loads: loads exceed n");
  }
  loads_.assign(loads.begin(), loads.end());
  idle_ = n_ - assigned;
}

Count Allocation::instantaneous_regret(const DemandVector& d) const {
  Count r = 0;
  for (std::int32_t j = 0; j < num_tasks(); ++j) {
    const Count delta = d[j] - load(j);
    r += delta < 0 ? -delta : delta;
  }
  return r;
}

InitialKind parse_initial_kind(std::string_view kind) {
  if (kind == "idle") return InitialKind::kIdle;
  if (kind == "uniform") return InitialKind::kUniform;
  if (kind == "adversarial") return InitialKind::kAdversarial;
  if (kind == "random") return InitialKind::kRandom;
  throw std::invalid_argument(
      "parse_initial_kind: unknown kind '" + std::string(kind) +
      "' (expected idle | uniform | adversarial | random)");
}

std::string_view to_string(InitialKind kind) {
  switch (kind) {
    case InitialKind::kIdle: return "idle";
    case InitialKind::kUniform: return "uniform";
    case InitialKind::kAdversarial: return "adversarial";
    case InitialKind::kRandom: return "random";
  }
  return "?";
}

std::vector<std::string> initial_kind_names() {
  return {"idle", "uniform", "adversarial", "random"};
}

Allocation make_initial_allocation(InitialKind kind, Count n_ants,
                                   std::int32_t k, std::uint64_t seed) {
  const auto ku = static_cast<std::size_t>(k);
  switch (kind) {
    case InitialKind::kIdle:
      return Allocation::all_idle(n_ants, k);
    case InitialKind::kUniform: {
      std::vector<Count> loads(ku, n_ants / k);
      // Distribute the remainder over the first tasks.
      for (std::size_t j = 0; j < static_cast<std::size_t>(n_ants % k); ++j) {
        ++loads[j];
      }
      return Allocation(n_ants, std::move(loads));
    }
    case InitialKind::kAdversarial: {
      std::vector<Count> loads(ku, 0);
      loads[0] = n_ants;
      return Allocation(n_ants, std::move(loads));
    }
    case InitialKind::kRandom: {
      rng::Xoshiro256 gen(seed);
      // Each ant independently picks a task or idle, uniformly over k+1 bins.
      // The leftover count is the idle pool.
      const std::vector<double> probs(ku, 1.0 / static_cast<double>(k + 1));
      std::vector<Count> counts(ku, 0);
      rng::multinomial_rest_into(gen, n_ants, probs, counts);
      return Allocation(n_ants, std::move(counts));
    }
  }
  throw std::invalid_argument("make_initial_allocation: bad kind");
}

Allocation make_initial_allocation(std::string_view kind, Count n_ants,
                                   std::int32_t k, std::uint64_t seed) {
  return make_initial_allocation(parse_initial_kind(kind), n_ants, k, seed);
}

}  // namespace antalloc
