// VecTraits<backend::Avx512>: the 512-bit x86 backend (F + BW + DQ + VL).
//
// TU isolation rule: only include from a family's sole
// -mavx512f/-mavx512bw/-mavx512dq/-mavx512vl translation unit, which must
// also be compiled -ffp-contract=off — AVX-512F brings FMA for zmm, and a
// contracted mul+add would break the bit-exactness contract of the float
// convolution bodies against every other backend. Execution is
// runtime-guarded by simdcv::caps (CPUID + XGETBV zmm-state check).
//
// AVX-512 compares yield k-masks; the cmp traits convert them back to
// all-ones/all-zeros vectors so the shared and/andNot select idiom of the
// kernel bodies works unchanged. Packs operate within 128-bit lanes (four
// of them here); the pack traits bake in the 64-bit-quarter permute that
// restores plain element order.
#pragma once

#if !defined(__AVX512F__) || !defined(__AVX512BW__) || !defined(__AVX512DQ__)
#error "vec_avx512.hpp included in a TU compiled without -mavx512f/bw/dq"
#endif

#include <cstddef>
#include <cstdint>

#include <immintrin.h>

#include "simd/vec.hpp"

namespace simdcv::simd {

template <>
struct VecTraits<backend::Avx512> {
  static constexpr const char* name = "avx512";
  static constexpr int bits = 512;
  static constexpr int f32_lanes = 16;
  static constexpr int s16_lanes = 32;
  static constexpr int u8_lanes = 64;

  using vf32 = __m512;
  using vs32 = __m512i;
  using vs16 = __m512i;
  using vu8 = __m512i;
  /// Multi-register results, in element order: two halves, three planes.
  struct vs32x2 {
    vs32 lo, hi;
  };
  struct vs16x2 {
    vs16 lo, hi;
  };
  struct vu8x3 {
    vu8 c0, c1, c2;
  };

  // ---- f32 -----------------------------------------------------------------
  static vf32 loadF32(const float* p) { return _mm512_loadu_ps(p); }
  static void storeF32(float* p, vf32 v) { _mm512_storeu_ps(p, v); }
  static vf32 setF32(float v) { return _mm512_set1_ps(v); }
  static vf32 addF32(vf32 a, vf32 b) { return _mm512_add_ps(a, b); }
  static vf32 subF32(vf32 a, vf32 b) { return _mm512_sub_ps(a, b); }
  static vf32 mulF32(vf32 a, vf32 b) { return _mm512_mul_ps(a, b); }
  static vf32 minF32(vf32 a, vf32 b) { return _mm512_min_ps(a, b); }
  static vf32 maxF32(vf32 a, vf32 b) { return _mm512_max_ps(a, b); }
  static vf32 absF32(vf32 v) {
    return _mm512_andnot_ps(_mm512_set1_ps(-0.0f), v);
  }
  static vf32 cmpGtF32(vf32 a, vf32 b) {
    return _mm512_castsi512_ps(
        _mm512_movm_epi32(_mm512_cmp_ps_mask(a, b, _CMP_GT_OQ)));
  }
  static vf32 andF32(vf32 a, vf32 b) { return _mm512_and_ps(a, b); }
  static vf32 andNotF32(vf32 mask, vf32 v) { return _mm512_andnot_ps(mask, v); }
  static vf32 orF32(vf32 a, vf32 b) { return _mm512_or_ps(a, b); }

  // ---- f32 <-> s32 ---------------------------------------------------------
  // Same contract as the SSE2/AVX2 traits: vcvtps2dq yields INT_MIN for NaN
  // and both overflow directions; flip positive-overflow lanes to INT_MAX
  // and zero NaN lanes (mask forms replace the vector-mask xor/andnot).
  static vs32 cvtF32toS32Sat(vf32 v) {
    __m512i t = _mm512_cvtps_epi32(v);
    const __mmask16 too_big =
        _mm512_cmp_ps_mask(v, _mm512_set1_ps(2147483648.0f), _CMP_GE_OQ);
    t = _mm512_mask_xor_epi32(t, too_big, t, _mm512_set1_epi32(-1));
    const __mmask16 is_nan = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    return _mm512_maskz_mov_epi32(_knot_mask16(is_nan), t);
  }
  static vf32 cvtS32toF32(vs32 v) { return _mm512_cvtepi32_ps(v); }

  // ---- f64 -----------------------------------------------------------------
  // Same contract as the SSE2 trait; each vf64 holds one 256-bit half of a
  // vf32/vs32. NaN lanes are zeroed through a k-mask; the rails are the
  // same max/min clamp as on the narrower backends.
  using vf64 = __m512d;
  struct vf64x2 {
    vf64 lo, hi;
  };
  static constexpr int f64_lanes = 8;

  static vf64 setF64(double v) { return _mm512_set1_pd(v); }
  static vf64 addF64(vf64 a, vf64 b) { return _mm512_add_pd(a, b); }
  static vf64 mulF64(vf64 a, vf64 b) { return _mm512_mul_pd(a, b); }
  static vf64 minF64(vf64 a, vf64 b) { return _mm512_min_pd(a, b); }
  static vf64 maxF64(vf64 a, vf64 b) { return _mm512_max_pd(a, b); }

  static vf64x2 loadU8AsF64(const std::uint8_t* p) {
    return s32ToF64(loadU8AsS32(p));
  }
  static vf64x2 loadS16AsF64(const std::int16_t* p) {
    return s32ToF64(loadS16AsS32(p));
  }
  static vf64x2 loadF32AsF64(const float* p) {
    return {_mm512_cvtps_pd(_mm256_loadu_ps(p)),
            _mm512_cvtps_pd(_mm256_loadu_ps(p + 8))};
  }
  static vs32 cvtF64toS32Sat(vf64x2 v) {
    return _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm512_cvtpd_epi32(clampF64(v.lo))),
        _mm512_cvtpd_epi32(clampF64(v.hi)), 1);
  }
  static vf32 cvtF64toF32(vf64x2 v) {
    return _mm512_insertf32x8(_mm512_castps256_ps512(_mm512_cvtpd_ps(v.lo)),
                              _mm512_cvtpd_ps(v.hi), 1);
  }

  // ---- widening loads ------------------------------------------------------
  static vs32 loadU8AsS32(const std::uint8_t* p) {
    return _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static vs32 loadS16AsS32(const std::int16_t* p) {
    return _mm512_cvtepi16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static vs16 loadU8AsS16(const std::uint8_t* p) {
    return _mm512_cvtepu8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }

  // ---- s16 / u16 -----------------------------------------------------------
  static vs16 loadS16(const std::int16_t* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void storeS16(std::int16_t* p, vs16 v) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  static vs16 setS16(std::int16_t v) { return _mm512_set1_epi16(v); }
  static vs16 zeroS16() { return _mm512_setzero_si512(); }
  static vs16 addS16(vs16 a, vs16 b) { return _mm512_add_epi16(a, b); }
  static vs16 subS16(vs16 a, vs16 b) { return _mm512_sub_epi16(a, b); }
  static vs16 addSatS16(vs16 a, vs16 b) { return _mm512_adds_epi16(a, b); }
  static vs16 subSatS16(vs16 a, vs16 b) { return _mm512_subs_epi16(a, b); }
  static vs16 mulLoS16(vs16 a, vs16 b) { return _mm512_mullo_epi16(a, b); }
  static vs16 minS16(vs16 a, vs16 b) { return _mm512_min_epi16(a, b); }
  static vs16 maxS16(vs16 a, vs16 b) { return _mm512_max_epi16(a, b); }
  /// k-mask expanded back to an s16-lane mask, as cmpGtU8 does.
  static vs16 cmpGtS16(vs16 a, vs16 b) {
    return _mm512_movm_epi16(_mm512_cmpgt_epi16_mask(a, b));
  }
  /// Typed s16 selects: mask & v and ~mask & v.
  static vs16 andS16(vs16 mask, vs16 v) { return _mm512_and_si512(mask, v); }
  static vs16 andNotS16(vs16 mask, vs16 v) { return _mm512_andnot_si512(mask, v); }
  template <int Imm>
  static vs16 shrLogU16(vs16 v) { return _mm512_srli_epi16(v, Imm); }
  /// Same contract as the SSE2 trait. The 64-bit quarters go
  /// (q0,q4,q1,q5,q2,q6,q3,q7) first, so the in-lane low unpack pairs
  /// elements 0..15 and the high one 16..31.
  static vs32x2 maddPairS16(vs16 a, vs16 b, std::int16_t wa,
                            std::int16_t wb) {
    const __m512i w = _mm512_set1_epi32(static_cast<std::int32_t>(
        static_cast<std::uint32_t>(static_cast<std::uint16_t>(wb)) << 16 |
        static_cast<std::uint16_t>(wa)));
    const __m512i order = _mm512_setr_epi64(0, 4, 1, 5, 2, 6, 3, 7);
    const __m512i ap = _mm512_permutexvar_epi64(order, a);
    const __m512i bp = _mm512_permutexvar_epi64(order, b);
    return {_mm512_madd_epi16(_mm512_unpacklo_epi16(ap, bp), w),
            _mm512_madd_epi16(_mm512_unpackhi_epi16(ap, bp), w)};
  }

  // ---- s32 -----------------------------------------------------------------
  static vs32 addS32(vs32 a, vs32 b) { return _mm512_add_epi32(a, b); }
  template <int Imm>
  static vs32 shrS32(vs32 v) { return _mm512_srai_epi32(v, Imm); }

  // ---- u8 ------------------------------------------------------------------
  static vu8 loadU8(const std::uint8_t* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void storeU8(std::uint8_t* p, vu8 v) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  /// A byte-masked load: masked-off lanes read as zero and never fault.
  static vu8 loadU8Partial(const std::uint8_t* p, int n) {
    return _mm512_maskz_loadu_epi8(
        _cvtu64_mask64((std::uint64_t{1} << n) - 1), p);
  }
  static vu8 setU8(std::uint8_t v) {
    return _mm512_set1_epi8(static_cast<char>(v));
  }
  static vu8 addSatU8(vu8 a, vu8 b) { return _mm512_adds_epu8(a, b); }
  static vu8 subSatU8(vu8 a, vu8 b) { return _mm512_subs_epu8(a, b); }
  static vu8 minU8(vu8 a, vu8 b) { return _mm512_min_epu8(a, b); }
  static vu8 maxU8(vu8 a, vu8 b) { return _mm512_max_epu8(a, b); }
  /// Native unsigned compare; k-mask expanded back to a byte-lane mask so
  /// the shared select idiom works unchanged.
  static vu8 cmpGtU8(vu8 a, vu8 b) {
    return _mm512_movm_epi8(_mm512_cmpgt_epu8_mask(a, b));
  }
  static vu8 andU8(vu8 a, vu8 b) { return _mm512_and_si512(a, b); }
  static vu8 andNotU8(vu8 mask, vu8 v) { return _mm512_andnot_si512(mask, v); }
  static vu8 orU8(vu8 a, vu8 b) { return _mm512_or_si512(a, b); }
  static vu8 xorU8(vu8 a, vu8 b) { return _mm512_xor_si512(a, b); }
  static vs16x2 widenU8(vu8 v) {
    return {_mm512_cvtepu8_epi16(_mm512_castsi512_si256(v)),
            _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(v, 1))};
  }
  /// Same contract as the SSE2 trait, composed like the AVX2 one: 128-bit
  /// lane j holds the 48-byte group of pixels 16j..16j+15, and an in-lane
  /// vpshufb split leaves every plane in element order.
  static vu8x3 deinterleave3U8(const std::uint8_t* p) {
    auto quad = [p](int off) {
      auto ld = [p, off](int j) {
        return _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(p + off + 48 * j));
      };
      __m512i v = _mm512_castsi128_si512(ld(0));
      v = _mm512_inserti32x4(v, ld(1), 1);
      v = _mm512_inserti32x4(v, ld(2), 2);
      return _mm512_inserti32x4(v, ld(3), 3);
    };
    const __m512i x0 = quad(0), x1 = quad(16), x2 = quad(32);
    auto plane = [&](int c) {
      auto split = [c](__m512i x, int k) {
        return _mm512_shuffle_epi8(
            x, _mm512_broadcast_i32x4(_mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(detail::kSplit3.m[c][k]))));
      };
      return _mm512_or_si512(_mm512_or_si512(split(x0, 0), split(x1, 1)),
                             split(x2, 2));
    };
    return {plane(0), plane(1), plane(2)};
  }

  // ---- order-correct packs -------------------------------------------------
  // vpackssdw / vpackuswb pack within each of the four 128-bit lanes; the
  // 64-bit quarters then sit in order a,b,a,b,a,b,a,b — one permutexvar
  // (0,2,4,6,1,3,5,7) restores plain concatenation order.
  static vs16 packS32toS16(vs32 a, vs32 b) {
    const __m512i order = _mm512_setr_epi64(0, 2, 4, 6, 1, 3, 5, 7);
    return _mm512_permutexvar_epi64(order, _mm512_packs_epi32(a, b));
  }
  static vu8 packS16toU8(vs16 a, vs16 b) {
    const __m512i order = _mm512_setr_epi64(0, 2, 4, 6, 1, 3, 5, 7);
    return _mm512_permutexvar_epi64(order, _mm512_packus_epi16(a, b));
  }
  /// Four s32 vectors -> 64 u8 with one final 32-bit-element permute: after
  /// the double pack, 4-byte groups sit interleaved a,b,c,d per lane.
  static vu8 packS32x4toU8(vs32 a, vs32 b, vs32 c, vs32 d) {
    const __m512i s01 = _mm512_packs_epi32(a, b);
    const __m512i s23 = _mm512_packs_epi32(c, d);
    const __m512i u = _mm512_packus_epi16(s01, s23);
    const __m512i order =
        _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    return _mm512_permutexvar_epi32(order, u);
  }

  // ---- reductions ----------------------------------------------------------
  static std::uint64_t sadSumU8(vu8 v) {
    const __m512i sad = _mm512_sad_epu8(v, _mm512_setzero_si512());
    return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(sad));
  }

 private:
  static vf64x2 s32ToF64(vs32 v) {
    return {_mm512_cvtepi32_pd(_mm512_castsi512_si256(v)),
            _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(v, 1))};
  }
  static vf64 clampF64(vf64 v) {
    const vf64 no_nan =
        _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(v, v, _CMP_ORD_Q), v);
    return minF64(maxF64(no_nan, setF64(-2147483648.0)), setF64(2147483647.0));
  }
};

}  // namespace simdcv::simd
