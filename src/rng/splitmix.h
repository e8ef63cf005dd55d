// SplitMix64: tiny, fast 64-bit mixer used for seeding and counter-based
// streams. Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom
// Number Generators" (OOPSLA 2014); public-domain constants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace antalloc::rng {

// One SplitMix64 step: advances `state` and returns the mixed output.
constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Stateless mix of a single word (a strong 64-bit hash).
constexpr std::uint64_t splitmix64_mix(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64_next(s);
}

// hash_combine(a, b), split in two: the term that depends on `b` alone, and
// the step that folds such a term into `a`. A caller combining many values
// with the same `b` computes hash_key_term(b) once and then pays one mix per
// combine (the per-ant feedback stream does this for every task id).
constexpr std::uint64_t hash_key_term(std::uint64_t b) noexcept {
  return 0x9e3779b97f4a7c15ull + (b << 6) + (b >> 2) + splitmix64_mix(b);
}

constexpr std::uint64_t hash_combine_term(std::uint64_t a,
                                          std::uint64_t key_term) noexcept {
  return splitmix64_mix(a ^ key_term);
}

// Combine words into a well-mixed 64-bit value. Used to derive independent
// substreams from (seed, trial, round, purpose, ...) coordinates so results
// are reproducible regardless of thread scheduling.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return hash_combine_term(a, hash_key_term(b));
}

constexpr std::uint64_t hash_words(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c) noexcept {
  return hash_combine(hash_combine(a, b), c);
}

constexpr std::uint64_t hash_words(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c, std::uint64_t d) noexcept {
  return hash_combine(hash_words(a, b, c), d);
}

// FNV-1a over a byte string. Used for content fingerprints (campaign config
// hashes, shard-file checksums) where the input is variable-length text
// rather than coordinate words; feed the result into hash_combine to mix it
// with word-shaped coordinates.
constexpr std::uint64_t hash_bytes(const char* data, std::size_t size) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

inline std::uint64_t hash_string(std::string_view s) noexcept {
  return hash_bytes(s.data(), s.size());
}

}  // namespace antalloc::rng
