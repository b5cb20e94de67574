/// \file scalar_kernels.hpp
/// \brief Scalar reference bodies of the SIMD kernels (internal).
///
/// The generic implementation IS these loops; the vector implementations
/// use them for ragged tails (count not divisible by the vector width)
/// and for the per-lane descent epilogue, so "byte-identical across
/// ISAs" reduces to "the vector main loop computes the same recurrence"
/// — everything else is literally shared code.
///
/// eytzinger_one must stay in lockstep with flat_detail::eytzinger_find
/// (core/flat_scheme.hpp): the engine's equivalence story is that a
/// kernel probe returns exactly what the scalar serving path computes.
/// tests/test_simd.cpp pins both directions.

#pragma once

#include <bit>
#include <cstdint>

#include "util/annotations.hpp"

namespace croute::simd::detail {

/// One Eytzinger lower-bound probe over the slice keys[off .. off+len):
/// slice position of the key equal to \p x, or len on a miss. Same
/// recurrence, same epilogue as flat_detail::eytzinger_find.
CROUTE_HOT inline std::uint32_t eytzinger_one(const std::uint32_t* keys,
                                   std::uint32_t off, std::uint32_t len,
                                   std::uint32_t x) noexcept {
  const std::uint32_t* slice = keys + off;
  std::uint32_t i = 1;
  while (i <= len) i = 2 * i + (slice[i - 1] < x);
  i >>= std::countr_one(i) + 1;
  if (i == 0 || slice[i - 1] != x) return len;
  return i - 1;
}

/// The descent epilogue alone: given the final descent index \p i (the
/// value after the `while (i <= len)` loop exits), resolves the slice
/// position / miss. Vector implementations run the loop across lanes
/// and finish each lane through this — the trailing-ones shift has no
/// vector form on SSE/AVX2/NEON, and the final equality re-reads a key
/// the descent just gathered (cache-hot).
CROUTE_HOT inline std::uint32_t eytzinger_epilogue(const std::uint32_t* keys,
                                        std::uint32_t off, std::uint32_t len,
                                        std::uint32_t x,
                                        std::uint32_t i) noexcept {
  i >>= std::countr_one(i) + 1;
  if (i == 0 || keys[off + i - 1] != x) return len;
  return i - 1;
}

/// Scalar eytzinger_batch (the generic kernel and every tail loop).
CROUTE_HOT inline void eytzinger_batch_scalar(const std::uint32_t* keys,
                                   const std::uint32_t* offs,
                                   const std::uint32_t* lens,
                                   const std::uint32_t* xs, std::uint32_t* out,
                                   std::uint32_t count) noexcept {
  for (std::uint32_t l = 0; l < count; ++l) {
    out[l] = eytzinger_one(keys, offs[l], lens[l], xs[l]);
  }
}

}  // namespace croute::simd::detail
