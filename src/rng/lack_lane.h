// Block draw of per-ant lack masks: the SIMD lane behind
// FeedbackAccess::sample_lack_masks (algo/algorithm.h).
//
// Cell (ant, j) of a round lacks iff
//   (Xoshiro256::first_output(hash_combine_term(hash_combine(round_key, ant),
//                                                task_keys[j])) >> 11)
//       < thresholds[j],
// which is the marginal-model draw of FeedbackAccess::sample_lack_mask before
// its lifecycle mask. The chain is pure integer arithmetic and identical for
// every ant, so one body compiled for wide vector ISAs draws 8 ants per
// instruction. Every lane must return exactly the bits of that formula;
// tests/feedback_access_test.cpp pins each one against the per-ant path.
#pragma once

#include <cstdint>
#include <span>

namespace antalloc::rng {

// One round's constants of the per-ant lack stream.
struct LackStream {
  std::uint64_t round_key = 0;                 // hash_combine(seed, t)
  std::span<const std::uint64_t> task_keys;    // hash_key_term(j), size k
  std::span<const std::uint64_t> thresholds;   // lack_threshold(p_j), size k
  // The tasks that may report lack (active, below k); no other bit is drawn.
  std::uint64_t tasks = 0;
};

// Writes the lack masks of ants first_ant, first_ant + 1, ... into out
// (bit j = task j lacks), restricted to want[a] & stream.tasks: a lane draws
// one cell for an ant that wants a single task, and for the others every
// task some ant of its 64-ant block wants. want.size() == out.size().
using LackLane = void (*)(const LackStream& stream, std::uint64_t first_ant,
                          std::span<const std::uint64_t> want,
                          std::span<std::uint64_t> out);

#if defined(__x86_64__) || defined(_M_X64)

// The same body compiled for x86-64-v4 (AVX-512) and x86-64-v3 (AVX2).
// Callers must gate on the CPU, as kLackLane does; tests call them by name.
[[gnu::target("arch=x86-64-v4")]] void lack_lane_v4(
    const LackStream& stream, std::uint64_t first_ant,
    std::span<const std::uint64_t> want, std::span<std::uint64_t> out);
[[gnu::target("arch=x86-64-v3")]] void lack_lane_v3(
    const LackStream& stream, std::uint64_t first_ant,
    std::span<const std::uint64_t> want, std::span<std::uint64_t> out);

namespace detail {
inline LackLane pick_lack_lane() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return lack_lane_v4;
  if (__builtin_cpu_supports("x86-64-v3")) return lack_lane_v3;
  return nullptr;
}
}  // namespace detail

// The widest lane this CPU runs, resolved once at startup (namespace-scope
// initialization, like kHasBmi2 in core/bits.h). nullptr means none, and
// callers fall back to the per-ant loop: a baseline-ISA (SSE2) build of the
// block body is barely faster than that loop.
inline const LackLane kLackLane = detail::pick_lack_lane();

#else

inline const LackLane kLackLane = nullptr;

#endif

}  // namespace antalloc::rng
