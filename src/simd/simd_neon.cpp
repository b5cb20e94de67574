/// \file simd_neon.cpp
/// \brief NEON kernels: 4 × 32-bit lanes for the Eytzinger descent.
///
/// NEON is architecturally mandatory on AArch64, so no per-file `-m`
/// flag and no runtime feature check are needed there — the dispatcher
/// treats it as always-supported when compiled in. NEON has no gather:
/// key loads stay scalar, the vector unit carries the compare-and-step
/// and the active-lane mask, and NEON's native unsigned compare drops the
/// sign-flip trick the AVX2 TU needs.

#include "simd/ops_tables.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "simd/scalar_kernels.hpp"

namespace croute::simd {
namespace {

CROUTE_HOT void eytzinger_batch_neon(const std::uint32_t* keys, const std::uint32_t* offs,
                          const std::uint32_t* lens, const std::uint32_t* xs,
                          std::uint32_t* out, std::uint32_t count) {
  std::uint32_t base = 0;
  for (; base + 4 <= count; base += 4) {
    const uint32x4_t vlen = vld1q_u32(lens + base);
    const uint32x4_t vx = vld1q_u32(xs + base);
    const std::uint32_t o0 = offs[base + 0], o1 = offs[base + 1];
    const std::uint32_t o2 = offs[base + 2], o3 = offs[base + 3];
    uint32x4_t vi = vdupq_n_u32(1);
    for (;;) {
      const uint32x4_t active = vcleq_u32(vi, vlen);  // i <= len
      if (vmaxvq_u32(active) == 0) break;
      alignas(16) std::uint32_t i4[4], a4[4];
      vst1q_u32(i4, vi);
      vst1q_u32(a4, active);
      // Scalar loads; retired lanes must not touch memory.
      const std::uint32_t k0 = a4[0] ? keys[o0 + i4[0] - 1] : 0;
      const std::uint32_t k1 = a4[1] ? keys[o1 + i4[1] - 1] : 0;
      const std::uint32_t k2 = a4[2] ? keys[o2 + i4[2] - 1] : 0;
      const std::uint32_t k3 = a4[3] ? keys[o3 + i4[3] - 1] : 0;
      alignas(16) const std::uint32_t k4[4] = {k0, k1, k2, k3};
      const uint32x4_t vkey = vld1q_u32(k4);
      // lt mask is 0 / 0xFFFFFFFF; i = 2i + (key < x) is a shift then a
      // subtract of the mask (subtracting ~0 adds 1 mod 2^32).
      const uint32x4_t lt = vcltq_u32(vkey, vx);
      const uint32x4_t stepped = vsubq_u32(vshlq_n_u32(vi, 1), lt);
      vi = vbslq_u32(active, stepped, vi);
    }
    alignas(16) std::uint32_t fi[4];
    vst1q_u32(fi, vi);
    for (std::uint32_t l = 0; l < 4; ++l) {
      out[base + l] = detail::eytzinger_epilogue(
          keys, offs[base + l], lens[base + l], xs[base + l], fi[l]);
    }
  }
  detail::eytzinger_batch_scalar(keys, offs + base, lens + base, xs + base,
                                 out + base, count - base);
}

}  // namespace

const Ops kNeonOps = {
    Isa::kNEON,
    "neon",
    &eytzinger_batch_neon,
};

}  // namespace croute::simd

#else  // !(aarch64 && NEON)

namespace croute::simd {
const Ops kNeonOps = {Isa::kNEON, "neon", nullptr};
}  // namespace croute::simd

#endif
