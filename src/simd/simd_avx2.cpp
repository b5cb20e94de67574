/// \file simd_avx2.cpp
/// \brief AVX2 kernel: 8 × 32-bit lanes for the Eytzinger descent with
/// hardware masked gathers.
///
/// This TU is compiled with `-mavx2` (CMakeLists.txt) on x86; the
/// feature macro gates the body so the file still builds — exporting a
/// null table — everywhere else. The dispatcher only hands this table
/// out after `__builtin_cpu_supports("avx2")` says yes.
///
/// Unsigned 32-bit compares are synthesized from the signed compare by
/// flipping the sign bit on both operands (AVX2 has no unsigned
/// epi32 compare), so the lanes match the scalar `key < x` for the full
/// uint32 range — no "ids fit in int32" assumption is baked into the
/// arithmetic. Gather *indices* are signed 32-bit scaled by 4, so key
/// pools must stay under 2^31 entries; FlatScheme enforces that bound
/// at compile() time (its offsets are uint32 anyway).

#include "simd/ops_tables.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "simd/scalar_kernels.hpp"

namespace croute::simd {
namespace {

/// One 8-lane descent group's register state.
struct Desc8 {
  __m256i voff;
  __m256i vx_s;    // search key, sign-flipped for unsigned compares
  __m256i vlen_s;  // slice length, sign-flipped
  __m256i vi;      // 1-based Eytzinger position per lane
  bool done;       // all 8 lanes retired
};

CROUTE_HOT inline Desc8 desc8_load(const std::uint32_t* offs,
                                   const std::uint32_t* lens,
                        const std::uint32_t* xs, std::uint32_t base,
                        __m256i sign, __m256i one) {
  Desc8 d;
  d.voff =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offs + base));
  d.vlen_s = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lens + base)),
      sign);
  d.vx_s = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + base)), sign);
  d.vi = one;
  d.done = false;
  return d;
}

/// One descent level for all still-active lanes of the group; sets
/// d.done once every lane has left its slice.
CROUTE_HOT inline void desc8_step(Desc8& d, const std::uint32_t* keys,
                                  __m256i sign,
                       __m256i one, __m256i zero) {
  // active ⇔ i <= len, i.e. !(i > len) in the sign-flipped domain.
  const __m256i done_m =
      _mm256_cmpgt_epi32(_mm256_xor_si256(d.vi, sign), d.vlen_s);
  if (_mm256_movemask_epi8(done_m) == -1) {
    d.done = true;
    return;
  }
  const __m256i active = _mm256_cmpeq_epi32(done_m, zero);
  // keys[off + i - 1]; the mask keeps retired lanes from touching
  // memory (their index has already left the slice).
  const __m256i vidx =
      _mm256_add_epi32(d.voff, _mm256_sub_epi32(d.vi, one));
  const __m256i vkey = _mm256_mask_i32gather_epi32(
      zero, reinterpret_cast<const int*>(keys), vidx, active, 4);
  // key < x unsigned ⇔ (x ^ sign) > (key ^ sign) signed; the mask is
  // 0 / -1, so i = 2i + (key < x) is a shift and a subtract.
  const __m256i lt =
      _mm256_cmpgt_epi32(d.vx_s, _mm256_xor_si256(vkey, sign));
  const __m256i stepped = _mm256_sub_epi32(_mm256_slli_epi32(d.vi, 1), lt);
  d.vi = _mm256_blendv_epi8(d.vi, stepped, active);
}

CROUTE_HOT inline void desc8_finish(const Desc8& d, const std::uint32_t* keys,
                         const std::uint32_t* offs, const std::uint32_t* lens,
                         const std::uint32_t* xs, std::uint32_t* out,
                         std::uint32_t base) {
  alignas(32) std::uint32_t fi[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(fi), d.vi);
  for (std::uint32_t l = 0; l < 8; ++l) {
    out[base + l] = detail::eytzinger_epilogue(
        keys, offs[base + l], lens[base + l], xs[base + l], fi[l]);
  }
}

CROUTE_HOT void eytzinger_batch_avx2(const std::uint32_t* keys, const std::uint32_t* offs,
                          const std::uint32_t* lens, const std::uint32_t* xs,
                          std::uint32_t* out, std::uint32_t count) {
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i zero = _mm256_setzero_si256();
  std::uint32_t base = 0;
  // Two 8-lane groups interleaved: each group's descent is one
  // load-dependent chain (gather feeds next level's index), so a lone
  // group keeps only 8 misses in flight and the chain latency gates the
  // loop. Stepping two independent groups per iteration doubles the
  // outstanding gathers — on memory-latency-bound hosts that, not ALU
  // width, is where batched descent time goes. Per-lane arithmetic is
  // identical either way, so answers don't change.
  for (; base + 16 <= count; base += 16) {
    Desc8 a = desc8_load(offs, lens, xs, base, sign, one);
    Desc8 b = desc8_load(offs, lens, xs, base + 8, sign, one);
    while (!(a.done && b.done)) {
      if (!a.done) desc8_step(a, keys, sign, one, zero);
      if (!b.done) desc8_step(b, keys, sign, one, zero);
    }
    desc8_finish(a, keys, offs, lens, xs, out, base);
    desc8_finish(b, keys, offs, lens, xs, out, base + 8);
  }
  for (; base + 8 <= count; base += 8) {
    Desc8 a = desc8_load(offs, lens, xs, base, sign, one);
    while (!a.done) desc8_step(a, keys, sign, one, zero);
    desc8_finish(a, keys, offs, lens, xs, out, base);
  }
  detail::eytzinger_batch_scalar(keys, offs + base, lens + base, xs + base,
                                 out + base, count - base);
}

}  // namespace

const Ops kAvx2Ops = {
    Isa::kAVX2,
    "avx2",
    &eytzinger_batch_avx2,
};

}  // namespace croute::simd

#else  // !__AVX2__

namespace croute::simd {
const Ops kAvx2Ops = {Isa::kAVX2, "avx2", nullptr};
}  // namespace croute::simd

#endif
