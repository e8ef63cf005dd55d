// xoshiro256**: the workhorse uniform bit generator for all simulations.
// Satisfies std::uniform_random_bit_generator so it composes with <random>
// distributions where we delegate to them. Reference: Blackman & Vigna,
// "Scrambled Linear Pseudorandom Number Generators" (2019).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "rng/splitmix.h"

namespace antalloc::rng {

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  // Seeds the four state words from SplitMix64, per the authors'
  // recommendation; guarantees a non-zero state for any seed.
  explicit constexpr Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bull) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  // Xoshiro256(seed)() without expanding the state: the first output
  // scrambles state word 1 only, which is the second SplitMix64 output from
  // `seed`.
  static constexpr result_type first_output(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed + 0x9e3779b97f4a7c15ull;  // skip word 0
    return scramble(splitmix64_next(sm));
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = scramble(state_[1]);
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // An output read as a uniform double in [0, 1) with 53 random bits.
  static constexpr double to_unit(result_type x) noexcept {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  // Uniform double in [0, 1) with 53 random bits.
  constexpr double uniform() noexcept { return to_unit((*this)()); }

  // Bernoulli(p) draw; p outside [0,1] saturates.
  constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

  // Uniform integer in [0, bound) via Lemire's multiply-shift (unbiased
  // enough for simulation at 64-bit width; bound must be > 0).
  constexpr std::uint64_t uniform_below(std::uint64_t bound) noexcept {
    const auto x = (*this)();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  // The ** scrambler: an output as a function of state word 1.
  static constexpr result_type scramble(std::uint64_t s1) noexcept {
    return rotl(s1 * 5, 7) * 9;
  }

  std::uint64_t state_[4]{};
};

// The integer form of a Bernoulli(p) test on an output x: `uniform() < p`
// reads x as m * 2^-53 with m = x >> 11, an exact double, so it holds iff
// m < ceil(p * 2^53). That threshold is 0 for p <= 0 or NaN and 2^53 for
// p >= 1 (every m passes). Samplers that test `(x >> 11) < lack_threshold(p)`
// need no floating point per draw, so compiler contraction or vector width
// cannot change a bit. At the two ends the test does not read x at all:
// m < 2^53 always holds and m < 0 never does.
inline constexpr std::uint64_t kAlwaysLack = std::uint64_t{1} << 53;
inline std::uint64_t lack_threshold(double p) noexcept {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return kAlwaysLack;
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

// Derives an independent generator for a logical coordinate, e.g.
// (seed, trial) or (seed, round, task). The mapping is pure: the same
// coordinates always yield the same stream, so parallel sweeps are
// reproducible no matter how trials land on threads.
inline Xoshiro256 stream_for(std::uint64_t seed, std::uint64_t a,
                             std::uint64_t b = 0, std::uint64_t c = 0) {
  return Xoshiro256(hash_words(seed, a, b, c));
}

}  // namespace antalloc::rng
