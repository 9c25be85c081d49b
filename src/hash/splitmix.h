// SplitMix64 finalizer-style mixing. The stateless `Mix64` overloads are the
// library's "random oracle": every sketch derives all of its randomness by
// mixing an explicit 64-bit seed with structural coordinates (level, row,
// index, ...). This makes sketches deterministic functions of their seed,
// which in turn makes distributed sketches mergeable: two sites constructing
// a sketch from the same seed perform identical linear measurements.
#ifndef GRAPHSKETCH_SRC_HASH_SPLITMIX_H_
#define GRAPHSKETCH_SRC_HASH_SPLITMIX_H_

#include <cstdint>

namespace gsketch {

/// One round of the SplitMix64 output function (Steele et al., 2014).
/// Bijective on 64-bit words; excellent avalanche behaviour.
inline constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Base of the Mix64 chain: Mix64(seed, a, ..., z) == SplitMix64(C + z)
/// where C hoists every coordinate but the last. Batched kernels
/// (src/sketch/cell_kernels.h) use this to precompute C once per
/// repetition/row and hash whole update batches with one SplitMix64 each.
inline constexpr uint64_t Mix64Base(uint64_t seed) {
  return SplitMix64(seed ^ 0x3c6ef372fe94f82aULL);
}

/// Mixes a seed with one coordinate into a pseudorandom 64-bit word.
inline constexpr uint64_t Mix64(uint64_t seed, uint64_t a) {
  return SplitMix64(Mix64Base(seed) + a);
}

/// Mixes a seed with two coordinates.
inline constexpr uint64_t Mix64(uint64_t seed, uint64_t a, uint64_t b) {
  return SplitMix64(Mix64(seed, a) + b);
}

/// Mixes a seed with three coordinates.
inline constexpr uint64_t Mix64(uint64_t seed, uint64_t a, uint64_t b,
                                uint64_t c) {
  return SplitMix64(Mix64(seed, a, b) + c);
}

/// Derives an independent child seed from a parent seed and a role tag.
/// Used to hand each sub-structure (sampler repetition, level, node, ...)
/// its own seed so their randomness is independent under the oracle model.
inline constexpr uint64_t DeriveSeed(uint64_t parent, uint64_t role) {
  return SplitMix64(parent ^ (0x9e3779b97f4a7c15ULL * (role + 1)));
}

/// Uniform double in [0, 1) from a 64-bit word (53 mantissa bits).
inline constexpr double ToUnitDouble(uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

/// Number of leading fair-coin successes in the word (trailing zero count,
/// capped). Determines the deepest subsampling level an element survives to.
/// Branch-free for cap < 64: the guard bit at position `cap` caps the count
/// and keeps the ctz operand nonzero. cap >= 64 (a SamplingLevels depth
/// set by options or read from a checkpoint can be that deep) takes the
/// guarded path, so ctz is never applied to 0.
inline constexpr uint32_t GeometricLevel(uint64_t word, uint32_t cap) {
  if (cap >= 64) {
    return word == 0 ? cap : static_cast<uint32_t>(__builtin_ctzll(word));
  }
  return static_cast<uint32_t>(__builtin_ctzll(word | (uint64_t{1} << cap)));
}

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_HASH_SPLITMIX_H_
