// VecTraits<backend::Avx2>: the 256-bit x86 backend.
//
// TU isolation rule: only include from the sole -mavx2 translation unit of
// a kernel family (see DESIGN.md §15). Execution is runtime-guarded by
// resolvePath / simdcv::caps, so merely compiling these bodies never
// executes AVX2 instructions on older hardware.
//
// AVX2 packs and widens operate within 128-bit lanes; every pack trait
// below bakes in the lane-order fixup so the result is the plain
// element-order concatenation the kernel bodies assume.
#pragma once

#if !defined(__AVX2__)
#error "vec_avx2.hpp included in a TU compiled without -mavx2"
#endif

#include <cstddef>
#include <cstdint>

#include <immintrin.h>

#include "simd/vec.hpp"

namespace simdcv::simd {

template <>
struct VecTraits<backend::Avx2> {
  static constexpr const char* name = "avx2";
  static constexpr int bits = 256;
  static constexpr int f32_lanes = 8;
  static constexpr int s16_lanes = 16;
  static constexpr int u8_lanes = 32;

  using vf32 = __m256;
  using vs32 = __m256i;
  using vs16 = __m256i;
  using vu8 = __m256i;
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
  static vf32 loadF32(const float* p) { return _mm256_loadu_ps(p); }
  static void storeF32(float* p, vf32 v) { _mm256_storeu_ps(p, v); }
  static vf32 setF32(float v) { return _mm256_set1_ps(v); }
  static vf32 addF32(vf32 a, vf32 b) { return _mm256_add_ps(a, b); }
  static vf32 subF32(vf32 a, vf32 b) { return _mm256_sub_ps(a, b); }
  static vf32 mulF32(vf32 a, vf32 b) { return _mm256_mul_ps(a, b); }
  static vf32 minF32(vf32 a, vf32 b) { return _mm256_min_ps(a, b); }
  static vf32 maxF32(vf32 a, vf32 b) { return _mm256_max_ps(a, b); }
  static vf32 absF32(vf32 v) {
    return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
  }
  static vf32 cmpGtF32(vf32 a, vf32 b) {
    return _mm256_cmp_ps(a, b, _CMP_GT_OQ);
  }
  static vf32 andF32(vf32 a, vf32 b) { return _mm256_and_ps(a, b); }
  static vf32 andNotF32(vf32 mask, vf32 v) { return _mm256_andnot_ps(mask, v); }
  static vf32 orF32(vf32 a, vf32 b) { return _mm256_or_ps(a, b); }

  // ---- f32 <-> s32 ---------------------------------------------------------
  // Same fix-ups as the SSE2 trait: vcvtps2dq yields INT_MIN for NaN and
  // both overflow directions; restore the scalar saturation contract.
  static vs32 cvtF32toS32Sat(vf32 v) {
    __m256i t = _mm256_cvtps_epi32(v);
    const __m256 too_big =
        _mm256_cmp_ps(v, _mm256_set1_ps(2147483648.0f), _CMP_GE_OQ);
    t = _mm256_xor_si256(
        t, _mm256_and_si256(_mm256_castps_si256(too_big), _mm256_set1_epi32(-1)));
    const __m256 is_nan = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
    return _mm256_andnot_si256(_mm256_castps_si256(is_nan), t);
  }
  static vf32 cvtS32toF32(vs32 v) { return _mm256_cvtepi32_ps(v); }

  // ---- f64 -----------------------------------------------------------------
  // Same contract as the SSE2 trait. Each vf64 holds one 128-bit half of a
  // vf32/vs32, so the widen and narrow steps below are plain half
  // extracts and inserts: no in-lane interleave to undo.
  using vf64 = __m256d;
  struct vf64x2 {
    vf64 lo, hi;
  };
  static constexpr int f64_lanes = 4;

  static vf64 setF64(double v) { return _mm256_set1_pd(v); }
  static vf64 addF64(vf64 a, vf64 b) { return _mm256_add_pd(a, b); }
  static vf64 mulF64(vf64 a, vf64 b) { return _mm256_mul_pd(a, b); }
  static vf64 minF64(vf64 a, vf64 b) { return _mm256_min_pd(a, b); }
  static vf64 maxF64(vf64 a, vf64 b) { return _mm256_max_pd(a, b); }

  static vf64x2 loadU8AsF64(const std::uint8_t* p) {
    return s32ToF64(loadU8AsS32(p));
  }
  static vf64x2 loadS16AsF64(const std::int16_t* p) {
    return s32ToF64(loadS16AsS32(p));
  }
  static vf64x2 loadF32AsF64(const float* p) {
    return {_mm256_cvtps_pd(_mm_loadu_ps(p)),
            _mm256_cvtps_pd(_mm_loadu_ps(p + 4))};
  }
  static vs32 cvtF64toS32Sat(vf64x2 v) {
    return _mm256_set_m128i(_mm256_cvtpd_epi32(clampF64(v.hi)),
                            _mm256_cvtpd_epi32(clampF64(v.lo)));
  }
  static vf32 cvtF64toF32(vf64x2 v) {
    return _mm256_set_m128(_mm256_cvtpd_ps(v.hi), _mm256_cvtpd_ps(v.lo));
  }

  // ---- widening loads ------------------------------------------------------
  static vs32 loadU8AsS32(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static vs32 loadS16AsS32(const std::int16_t* p) {
    return _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static vs16 loadU8AsS16(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }

  // ---- s16 / u16 -----------------------------------------------------------
  static vs16 loadS16(const std::int16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeS16(std::int16_t* p, vs16 v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static vs16 setS16(std::int16_t v) { return _mm256_set1_epi16(v); }
  static vs16 zeroS16() { return _mm256_setzero_si256(); }
  static vs16 addS16(vs16 a, vs16 b) { return _mm256_add_epi16(a, b); }
  static vs16 subS16(vs16 a, vs16 b) { return _mm256_sub_epi16(a, b); }
  static vs16 addSatS16(vs16 a, vs16 b) { return _mm256_adds_epi16(a, b); }
  static vs16 subSatS16(vs16 a, vs16 b) { return _mm256_subs_epi16(a, b); }
  static vs16 mulLoS16(vs16 a, vs16 b) { return _mm256_mullo_epi16(a, b); }
  static vs16 minS16(vs16 a, vs16 b) { return _mm256_min_epi16(a, b); }
  static vs16 maxS16(vs16 a, vs16 b) { return _mm256_max_epi16(a, b); }
  static vs16 cmpGtS16(vs16 a, vs16 b) { return _mm256_cmpgt_epi16(a, b); }
  template <int Imm>
  static vs16 shrLogU16(vs16 v) { return _mm256_srli_epi16(v, Imm); }
  /// Same contract as the SSE2 trait. vpunpck*wd interleaves within 128-bit
  /// lanes, so each input's 64-bit quarters go (q0,q2,q1,q3) first: the
  /// low unpack then pairs elements 0..7 and the high one 8..15.
  static vs32x2 maddPairS16(vs16 a, vs16 b, std::int16_t wa,
                            std::int16_t wb) {
    const __m256i w = _mm256_set1_epi32(static_cast<std::int32_t>(
        static_cast<std::uint32_t>(static_cast<std::uint16_t>(wb)) << 16 |
        static_cast<std::uint16_t>(wa)));
    const __m256i ap = _mm256_permute4x64_epi64(a, _MM_SHUFFLE(3, 1, 2, 0));
    const __m256i bp = _mm256_permute4x64_epi64(b, _MM_SHUFFLE(3, 1, 2, 0));
    return {_mm256_madd_epi16(_mm256_unpacklo_epi16(ap, bp), w),
            _mm256_madd_epi16(_mm256_unpackhi_epi16(ap, bp), w)};
  }

  // ---- s32 -----------------------------------------------------------------
  static vs32 addS32(vs32 a, vs32 b) { return _mm256_add_epi32(a, b); }
  template <int Imm>
  static vs32 shrS32(vs32 v) { return _mm256_srai_epi32(v, Imm); }

  // ---- u8 ------------------------------------------------------------------
  static vu8 loadU8(const std::uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeU8(std::uint8_t* p, vu8 v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static vu8 loadU8Partial(const std::uint8_t* p, int n) {
    alignas(32) std::uint8_t buf[32] = {};
    __builtin_memcpy(buf, p, static_cast<std::size_t>(n));
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
  }
  static vu8 setU8(std::uint8_t v) {
    return _mm256_set1_epi8(static_cast<char>(v));
  }
  static vu8 addSatU8(vu8 a, vu8 b) { return _mm256_adds_epu8(a, b); }
  static vu8 subSatU8(vu8 a, vu8 b) { return _mm256_subs_epu8(a, b); }
  static vu8 minU8(vu8 a, vu8 b) { return _mm256_min_epu8(a, b); }
  static vu8 maxU8(vu8 a, vu8 b) { return _mm256_max_epu8(a, b); }
  static vu8 cmpGtU8(vu8 a, vu8 b) {
    const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
    return _mm256_cmpgt_epi8(_mm256_xor_si256(a, bias),
                             _mm256_xor_si256(b, bias));
  }
  static vu8 andU8(vu8 a, vu8 b) { return _mm256_and_si256(a, b); }
  static vu8 andNotU8(vu8 mask, vu8 v) { return _mm256_andnot_si256(mask, v); }
  static vu8 orU8(vu8 a, vu8 b) { return _mm256_or_si256(a, b); }
  static vu8 xorU8(vu8 a, vu8 b) { return _mm256_xor_si256(a, b); }
  static vs16x2 widenU8(vu8 v) {
    return {_mm256_cvtepu8_epi16(_mm256_castsi256_si128(v)),
            _mm256_cvtepu8_epi16(_mm256_extracti128_si256(v, 1))};
  }
  /// Same contract as the SSE2 trait. Each 128-bit lane gets one 48-byte
  /// group (lane 0 pixels 0..15, lane 1 pixels 16..31), so the in-lane
  /// vpshufb split below leaves every plane in element order.
  static vu8x3 deinterleave3U8(const std::uint8_t* p) {
    auto pair = [p](int off) {
      return _mm256_inserti128_si256(
          _mm256_castsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + off))),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + off + 48)), 1);
    };
    const __m256i x0 = pair(0), x1 = pair(16), x2 = pair(32);
    auto plane = [&](int c) {
      auto split = [c](__m256i x, int k) {
        return _mm256_shuffle_epi8(
            x, _mm256_broadcastsi128_si256(_mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(detail::kSplit3.m[c][k]))));
      };
      return _mm256_or_si256(_mm256_or_si256(split(x0, 0), split(x1, 1)),
                             split(x2, 2));
    };
    return {plane(0), plane(1), plane(2)};
  }

  // ---- order-correct packs -------------------------------------------------
  // vpackssdw / vpackuswb pack within 128-bit lanes; a 64-bit-quarter
  // permute (q0,q2,q1,q3) restores plain element order afterwards.
  static vs16 packS32toS16(vs32 a, vs32 b) {
    return _mm256_permute4x64_epi64(_mm256_packs_epi32(a, b),
                                    _MM_SHUFFLE(3, 1, 2, 0));
  }
  static vu8 packS16toU8(vs16 a, vs16 b) {
    return _mm256_permute4x64_epi64(_mm256_packus_epi16(a, b),
                                    _MM_SHUFFLE(3, 1, 2, 0));
  }
  /// Four s32 vectors -> 32 u8, single final 32-bit-element permute (the
  /// double pack leaves 4-byte groups in a fixed interleave).
  static vu8 packS32x4toU8(vs32 a, vs32 b, vs32 c, vs32 d) {
    const __m256i s01 = _mm256_packs_epi32(a, b);
    const __m256i s23 = _mm256_packs_epi32(c, d);
    const __m256i u = _mm256_packus_epi16(s01, s23);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    return _mm256_permutevar8x32_epi32(u, order);
  }

  // ---- reductions ----------------------------------------------------------
  static std::uint64_t sadSumU8(vu8 v) {
    const __m256i sad = _mm256_sad_epu8(v, _mm256_setzero_si256());
    const __m128i lo = _mm256_castsi256_si128(sad);
    const __m128i hi = _mm256_extracti128_si256(sad, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<std::uint64_t>(
               _mm_cvtsi128_si64(_mm_srli_si128(s, 8)));
  }

 private:
  static vf64x2 s32ToF64(vs32 v) {
    return {_mm256_cvtepi32_pd(_mm256_castsi256_si128(v)),
            _mm256_cvtepi32_pd(_mm256_extracti128_si256(v, 1))};
  }
  static vf64 clampF64(vf64 v) {
    const vf64 no_nan = _mm256_and_pd(v, _mm256_cmp_pd(v, v, _CMP_ORD_Q));
    return minF64(maxF64(no_nan, setF64(-2147483648.0)), setF64(2147483647.0));
  }
};

}  // namespace simdcv::simd
