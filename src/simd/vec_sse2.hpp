// VecTraits<backend::Sse2>: the 128-bit x86 baseline backend.
//
// TU isolation rule: this header may only be included from translation
// units compiled with SSE2 available. The library pins the whole x86 build
// to -msse2, so any TU qualifies; the #error below catches misuse on other
// architectures (non-x86 builds must not include this header).
#pragma once

#if !defined(__SSE2__)
#error "vec_sse2.hpp included in a TU compiled without SSE2"
#endif

#include <cstddef>
#include <cstdint>

#include <emmintrin.h>

#include "simd/vec.hpp"

namespace simdcv::simd {

template <>
struct VecTraits<backend::Sse2> {
  static constexpr const char* name = "sse2";
  static constexpr int bits = 128;
  static constexpr int f32_lanes = 4;
  static constexpr int s16_lanes = 8;
  static constexpr int u8_lanes = 16;

  using vf32 = __m128;
  using vs32 = __m128i;
  using vs16 = __m128i;
  using vu8 = __m128i;
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
  static vf32 loadF32(const float* p) { return _mm_loadu_ps(p); }
  static void storeF32(float* p, vf32 v) { _mm_storeu_ps(p, v); }
  static vf32 setF32(float v) { return _mm_set1_ps(v); }
  static vf32 addF32(vf32 a, vf32 b) { return _mm_add_ps(a, b); }
  static vf32 subF32(vf32 a, vf32 b) { return _mm_sub_ps(a, b); }
  static vf32 mulF32(vf32 a, vf32 b) { return _mm_mul_ps(a, b); }
  static vf32 minF32(vf32 a, vf32 b) { return _mm_min_ps(a, b); }
  static vf32 maxF32(vf32 a, vf32 b) { return _mm_max_ps(a, b); }
  static vf32 absF32(vf32 v) {
    return _mm_andnot_ps(_mm_set1_ps(-0.0f), v);
  }
  static vf32 cmpGtF32(vf32 a, vf32 b) { return _mm_cmpgt_ps(a, b); }
  static vf32 andF32(vf32 a, vf32 b) { return _mm_and_ps(a, b); }
  /// ~mask & v (mask first, value second — matches the select idiom).
  static vf32 andNotF32(vf32 mask, vf32 v) { return _mm_andnot_ps(mask, v); }
  static vf32 orF32(vf32 a, vf32 b) { return _mm_or_ps(a, b); }

  // ---- f32 <-> s32 ---------------------------------------------------------
  /// Round-to-nearest-even f32 -> s32 with the library's saturation
  /// contract: cvtps2dq alone returns INT_MIN ("integer indefinite") for NaN
  /// and BOTH overflow directions; flip positive-overflow lanes to INT_MAX
  /// and zero NaN lanes so a following pack saturates like the scalar path.
  static vs32 cvtF32toS32Sat(vf32 v) {
    __m128i t = _mm_cvtps_epi32(v);
    const __m128 too_big = _mm_cmpge_ps(v, _mm_set1_ps(2147483648.0f));
    t = _mm_xor_si128(t,
                      _mm_and_si128(_mm_castps_si128(too_big), _mm_set1_epi32(-1)));
    const __m128 is_nan = _mm_cmpunord_ps(v, v);
    return _mm_andnot_si128(_mm_castps_si128(is_nan), t);
  }
  static vf32 cvtS32toF32(vs32 v) { return _mm_cvtepi32_ps(v); }

  // ---- f64 -----------------------------------------------------------------
  using vf64 = __m128d;
  /// f32_lanes doubles in element order: lo = elements [0, f64_lanes).
  struct vf64x2 {
    vf64 lo, hi;
  };
  static constexpr int f64_lanes = 2;

  static vf64 setF64(double v) { return _mm_set1_pd(v); }
  static vf64 addF64(vf64 a, vf64 b) { return _mm_add_pd(a, b); }
  static vf64 mulF64(vf64 a, vf64 b) { return _mm_mul_pd(a, b); }
  static vf64 minF64(vf64 a, vf64 b) { return _mm_min_pd(a, b); }
  static vf64 maxF64(vf64 a, vf64 b) { return _mm_max_pd(a, b); }

  /// f32_lanes u8 / s16 / f32 -> f64 (every value is exact in f64).
  static vf64x2 loadU8AsF64(const std::uint8_t* p) {
    return spliceF64(loadU8AsS32(p), 4503599627370496.0);  // 2^52
  }
  static vf64x2 loadS16AsF64(const std::int16_t* p) {
    return spliceF64(_mm_xor_si128(loadS16AsS32(p), _mm_set1_epi32(INT32_MIN)),
                     4503601774854144.0);  // 2^52 + 2^31
  }
  static vf64x2 loadF32AsF64(const float* p) {
    const __m128 v = _mm_loadu_ps(p);
    return {_mm_cvtps_pd(v), _mm_cvtps_pd(_mm_movehl_ps(v, v))};
  }

  /// Round-half-even f64 -> s32 with saturate_cast<int32_t>(double)'s
  /// contract: NaN lanes are zeroed and the rest clamped to
  /// [-2^31, 2^31 - 1] before rounding (the rails are integers, so they
  /// round to themselves).
  static vs32 cvtF64toS32Sat(vf64x2 v) {
    // x + 1.5*2^52 rounds the clamped x to an integer under the current
    // (nearest-even) mode, as cvtpd2dq would, and leaves it two's-complement
    // in the low dword; one shufps gathers the four dwords. This keeps the
    // conversion off the shuffle port that cvtpd2dq shares with the packs.
    const __m128d magic = _mm_set1_pd(6755399441055744.0);
    return _mm_castps_si128(_mm_shuffle_ps(
        _mm_castpd_ps(_mm_add_pd(clampF64(v.lo), magic)),
        _mm_castpd_ps(_mm_add_pd(clampF64(v.hi), magic)),
        _MM_SHUFFLE(2, 0, 2, 0)));
  }
  /// f64 -> f32 under the current (nearest-even) rounding, like
  /// static_cast<float>(double): overflow gives ±Inf, NaN stays NaN.
  static vf32 cvtF64toF32(vf64x2 v) {
    return _mm_movelh_ps(_mm_cvtpd_ps(v.lo), _mm_cvtpd_ps(v.hi));
  }

  // ---- widening loads ------------------------------------------------------
  /// f32_lanes u8 -> s32 lanes (zero-extended).
  static vs32 loadU8AsS32(const std::uint8_t* p) {
    std::int32_t tmp;
    __builtin_memcpy(&tmp, p, 4);
    const __m128i v = _mm_cvtsi32_si128(tmp);
    const __m128i zero = _mm_setzero_si128();
    return _mm_unpacklo_epi16(_mm_unpacklo_epi8(v, zero), zero);
  }
  /// f32_lanes s16 -> s32 lanes (sign-extended).
  static vs32 loadS16AsS32(const std::int16_t* p) {
    const __m128i v = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm_srai_epi32(_mm_unpacklo_epi16(v, v), 16);
  }
  /// s16_lanes u8 -> s16 lanes (zero-extended; doubles as the u16 widen).
  static vs16 loadU8AsS16(const std::uint8_t* p) {
    return _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)),
        _mm_setzero_si128());
  }

  // ---- s16 / u16 -----------------------------------------------------------
  static vs16 loadS16(const std::int16_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeS16(std::int16_t* p, vs16 v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static vs16 setS16(std::int16_t v) { return _mm_set1_epi16(v); }
  static vs16 zeroS16() { return _mm_setzero_si128(); }
  static vs16 addS16(vs16 a, vs16 b) { return _mm_add_epi16(a, b); }
  static vs16 subS16(vs16 a, vs16 b) { return _mm_sub_epi16(a, b); }
  static vs16 addSatS16(vs16 a, vs16 b) { return _mm_adds_epi16(a, b); }
  static vs16 subSatS16(vs16 a, vs16 b) { return _mm_subs_epi16(a, b); }
  static vs16 mulLoS16(vs16 a, vs16 b) { return _mm_mullo_epi16(a, b); }
  static vs16 minS16(vs16 a, vs16 b) { return _mm_min_epi16(a, b); }
  static vs16 maxS16(vs16 a, vs16 b) { return _mm_max_epi16(a, b); }
  /// Signed a > b as an all-ones/all-zeros s16-lane mask.
  static vs16 cmpGtS16(vs16 a, vs16 b) { return _mm_cmpgt_epi16(a, b); }
  template <int Imm>
  static vs16 shrLogU16(vs16 v) { return _mm_srli_epi16(v, Imm); }
  /// s16_lanes pairs (a[i], b[i]) times (wa, wb), summed into s32 lanes:
  /// lo = elements [0, f32_lanes), hi = the rest. PMADDWD on the
  /// interleaved pairs; exact except a[i] = b[i] = wa = wb = -32768, which
  /// wraps to INT32_MIN.
  static vs32x2 maddPairS16(vs16 a, vs16 b, std::int16_t wa,
                            std::int16_t wb) {
    const __m128i w = _mm_set1_epi32(static_cast<std::int32_t>(
        static_cast<std::uint32_t>(static_cast<std::uint16_t>(wb)) << 16 |
        static_cast<std::uint16_t>(wa)));
    return {_mm_madd_epi16(_mm_unpacklo_epi16(a, b), w),
            _mm_madd_epi16(_mm_unpackhi_epi16(a, b), w)};
  }

  // ---- s32 -----------------------------------------------------------------
  static vs32 addS32(vs32 a, vs32 b) { return _mm_add_epi32(a, b); }
  template <int Imm>
  static vs32 shrS32(vs32 v) { return _mm_srai_epi32(v, Imm); }

  // ---- u8 ------------------------------------------------------------------
  static vu8 loadU8(const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeU8(std::uint8_t* p, vu8 v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  /// The first n (0 <= n < u8_lanes) bytes at p, zeros above; reads no
  /// byte past p + n.
  static vu8 loadU8Partial(const std::uint8_t* p, int n) {
    alignas(16) std::uint8_t buf[16] = {};
    __builtin_memcpy(buf, p, static_cast<std::size_t>(n));
    return _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
  }
  static vu8 setU8(std::uint8_t v) {
    return _mm_set1_epi8(static_cast<char>(v));
  }
  static vu8 addSatU8(vu8 a, vu8 b) { return _mm_adds_epu8(a, b); }
  static vu8 subSatU8(vu8 a, vu8 b) { return _mm_subs_epu8(a, b); }
  static vu8 minU8(vu8 a, vu8 b) { return _mm_min_epu8(a, b); }
  static vu8 maxU8(vu8 a, vu8 b) { return _mm_max_epu8(a, b); }
  /// Unsigned a > b as an all-ones/all-zeros byte mask. SSE2 has no
  /// unsigned byte compare: bias both sides by 0x80 and compare signed.
  static vu8 cmpGtU8(vu8 a, vu8 b) {
    const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
    return _mm_cmpgt_epi8(_mm_xor_si128(a, bias), _mm_xor_si128(b, bias));
  }
  static vu8 andU8(vu8 a, vu8 b) { return _mm_and_si128(a, b); }
  /// ~mask & v.
  static vu8 andNotU8(vu8 mask, vu8 v) { return _mm_andnot_si128(mask, v); }
  static vu8 orU8(vu8 a, vu8 b) { return _mm_or_si128(a, b); }
  static vu8 xorU8(vu8 a, vu8 b) { return _mm_xor_si128(a, b); }
  /// u8_lanes u8 -> s16 (zero-extended): lo = elements [0, s16_lanes).
  static vs16x2 widenU8(vu8 v) {
    const __m128i zero = _mm_setzero_si128();
    return {_mm_unpacklo_epi8(v, zero), _mm_unpackhi_epi8(v, zero)};
  }
  /// 3 * u8_lanes interleaved bytes -> the three channel planes (NEON's
  /// vld3q_u8). SSE2 has no byte shuffle: four rounds of the 48-byte
  /// perfect shuffle (byte j -> 2j mod 47) move byte 3i + c to 16c + i,
  /// because 2^4 * 3 = 48 = 1 (mod 47).
  static vu8x3 deinterleave3U8(const std::uint8_t* p) {
    __m128i a = loadU8(p), b = loadU8(p + 16), c = loadU8(p + 32);
    for (int round = 0; round < 4; ++round) {
      const __m128i a2 = _mm_unpacklo_epi8(a, _mm_srli_si128(b, 8));
      const __m128i b2 = _mm_unpackhi_epi8(a, _mm_slli_si128(c, 8));
      c = _mm_unpacklo_epi8(b, _mm_srli_si128(c, 8));
      a = a2;
      b = b2;
    }
    return {a, b, c};
  }

  // ---- order-correct packs -------------------------------------------------
  /// Saturating s32 -> s16 concatenation: result s16 lanes are
  /// [a0..a3, b0..b3] (128-bit packs is already in element order).
  static vs16 packS32toS16(vs32 a, vs32 b) { return _mm_packs_epi32(a, b); }
  /// Saturating s16 -> u8 concatenation: [a0..a7, b0..b7].
  static vu8 packS16toU8(vs16 a, vs16 b) { return _mm_packus_epi16(a, b); }
  /// Saturating s32 -> u8 concatenation of four vectors: [a.., b.., c.., d..].
  static vu8 packS32x4toU8(vs32 a, vs32 b, vs32 c, vs32 d) {
    return _mm_packus_epi16(_mm_packs_epi32(a, b), _mm_packs_epi32(c, d));
  }

  // ---- reductions ----------------------------------------------------------
  /// Horizontal sum of all u8 lanes (PSADBW against zero).
  static std::uint64_t sadSumU8(vu8 v) {
    const __m128i sad = _mm_sad_epu8(v, _mm_setzero_si128());
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(sad)) +
           static_cast<std::uint64_t>(
               _mm_cvtsi128_si64(_mm_srli_si128(sad, 8)));
  }

 private:
  // Exact u32 -> f64 without cvtdq2pd: splice each value under the exponent
  // of 2^52 (the double 2^52 + u) and subtract `base`. Signed values are
  // first biased to unsigned by flipping the sign bit (base 2^52 + 2^31).
  static vf64x2 spliceF64(vs32 u, double base) {
    const __m128i e = _mm_set1_epi32(0x43300000);
    const __m128d b = _mm_set1_pd(base);
    return {_mm_sub_pd(_mm_castsi128_pd(_mm_unpacklo_epi32(u, e)), b),
            _mm_sub_pd(_mm_castsi128_pd(_mm_unpackhi_epi32(u, e)), b)};
  }
  static vf64 clampF64(vf64 v) {
    const vf64 no_nan = _mm_and_pd(v, _mm_cmpord_pd(v, v));
    return minF64(maxF64(no_nan, setF64(-2147483648.0)), setF64(2147483647.0));
  }
};

}  // namespace simdcv::simd
