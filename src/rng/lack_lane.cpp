#include "rng/lack_lane.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <algorithm>
#include <bit>
#include <cstddef>

#include "rng/splitmix.h"
#include "rng/xoshiro.h"

namespace antalloc::rng {
namespace {

constexpr std::size_t kBlock = 64;

// Whether cell (ant key, task key) lacks against `below`.
[[gnu::always_inline]] inline bool lacks(std::uint64_t ant_key,
                                         std::uint64_t task_key,
                                         std::uint64_t below) {
  return (Xoshiro256::first_output(hash_combine_term(ant_key, task_key)) >>
          11) < below;
}

// masks[d] |= the lack bit of every task in `tasks` for ant key keys[d],
// d < n. Called with n = kBlock it has a fixed trip count, which vectorizes
// without a scalar tail.
[[gnu::always_inline]] inline void draw_tasks(const LackStream& stream,
                                              std::uint64_t tasks,
                                              const std::uint64_t* keys,
                                              std::size_t n,
                                              std::uint64_t* masks) {
  for (; tasks != 0; tasks &= tasks - 1) {
    const auto j = static_cast<std::size_t>(std::countr_zero(tasks));
    const std::uint64_t task_key = stream.task_keys[j];
    const std::uint64_t below = stream.thresholds[j];
    for (std::size_t d = 0; d < n; ++d) {
      masks[d] |= static_cast<std::uint64_t>(lacks(keys[d], task_key, below))
                  << j;
    }
  }
}

// Ants are drawn 64 at a time with their keys in stack arrays. Ants that
// want at most one task (working ants reading their own) draw that one
// cell, all 64 lanes at once with the task's key and threshold gathered per
// ant beforehand. The others (idle ants) draw every task any of them wants:
// in place when the whole block is such ants, else packed together first.
// So a block costs about as many cells as the per-ant loop draws, however
// large k is, and a block that draws no cell costs no hash at all. Inlined
// into each target wrapper below, so the compiler vectorizes it once per
// ISA.
[[gnu::always_inline]] inline void lack_block_body(
    const LackStream& stream, std::uint64_t first_ant,
    std::span<const std::uint64_t> want, std::span<std::uint64_t> out) {
  for (std::size_t base = 0; base < out.size(); base += kBlock) {
    const std::size_t len = std::min(kBlock, out.size() - base);
    const auto out_block = out.begin() + static_cast<std::ptrdiff_t>(base);

    // The tasks each ant draws. A block that draws none needs no keys.
    std::uint64_t w[kBlock] = {};
    std::uint64_t any = 0;
    for (std::size_t a = 0; a < len; ++a) {
      w[a] = want[base + a] & stream.tasks;
      any |= w[a];
    }
    if (any == 0) {
      std::fill_n(out_block, len, std::uint64_t{0});
      continue;
    }
    std::uint64_t keys[kBlock] = {};
    for (std::size_t a = 0; a < kBlock; ++a) {
      keys[a] = hash_combine(stream.round_key, first_ant + base + a);
    }
    // The ants wanting several tasks, and the union of what they want.
    std::size_t n_many = 0;
    std::uint64_t many_tasks = 0;
    for (std::size_t a = 0; a < kBlock; ++a) {
      const bool many = (w[a] & (w[a] - 1)) != 0;
      n_many += many;
      many_tasks |= many ? w[a] : 0;
    }

    std::uint64_t masks[kBlock] = {};
    if (n_many == len) {
      draw_tasks(stream, many_tasks, keys, kBlock, masks);
      for (std::size_t a = 0; a < kBlock; ++a) masks[a] &= w[a];
    } else {
      // One-task ants get their cell's constants; the rest are listed.
      std::uint64_t one_key[kBlock] = {};
      std::uint64_t one_below[kBlock] = {};
      std::uint8_t many[kBlock] = {};
      std::size_t listed = 0;
      for (std::size_t a = 0; a < len; ++a) {
        if ((w[a] & (w[a] - 1)) != 0) {
          many[listed++] = static_cast<std::uint8_t>(a);
        } else if (w[a] != 0) {
          const auto j = static_cast<std::size_t>(std::countr_zero(w[a]));
          one_key[a] = stream.task_keys[j];
          one_below[a] = stream.thresholds[j];
        }
      }
      for (std::size_t a = 0; a < kBlock; ++a) {
        const bool lack = lacks(keys[a], one_key[a], one_below[a]);
        masks[a] = w[a] & (std::uint64_t{0} - lack);
      }
      if (n_many > 0) {
        std::uint64_t many_keys[kBlock] = {};
        std::uint64_t many_masks[kBlock] = {};
        for (std::size_t d = 0; d < n_many; ++d) many_keys[d] = keys[many[d]];
        draw_tasks(stream, many_tasks, many_keys, n_many, many_masks);
        for (std::size_t d = 0; d < n_many; ++d) {
          masks[many[d]] = many_masks[d] & w[many[d]];
        }
      }
    }
    std::copy_n(masks, len, out_block);
  }
}

}  // namespace

[[gnu::target("arch=x86-64-v4")]] void lack_lane_v4(
    const LackStream& stream, std::uint64_t first_ant,
    std::span<const std::uint64_t> want, std::span<std::uint64_t> out) {
  lack_block_body(stream, first_ant, want, out);
}

[[gnu::target("arch=x86-64-v3")]] void lack_lane_v3(
    const LackStream& stream, std::uint64_t first_ant,
    std::span<const std::uint64_t> want, std::span<std::uint64_t> out) {
  lack_block_body(stream, first_ant, want, out);
}

}  // namespace antalloc::rng

#endif
