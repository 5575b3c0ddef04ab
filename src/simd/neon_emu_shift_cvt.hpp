// NEON intrinsics emulation — shifts, type conversions, narrowing/packing.
//
// Includes the ops the paper's benchmark-1 kernel is built from:
//   vcvtq_s32_f32 (float -> int32, truncate-toward-zero, saturating, NaN -> 0)
//   vqmovn_s32    (int32 -> int16 saturating narrow)
// plus vcvtnq_s32_f32, the ARMv8 round-to-nearest-even variant, which the
// library's NEON HAND kernel uses to stay bit-exact with the scalar
// reference (the paper's ARMv7 listing truncates; see DESIGN.md).
#pragma once

#include "simd/neon_emu_traits.hpp"

#if defined(SIMDCV_NEON_EMU_SSE2)
#include <emmintrin.h>
#endif

// ---- shifts by immediate -----------------------------------------------------
// NEON allows shift counts 1..bits for right shifts and 0..bits-1 for left;
// we assert the union of those ranges. Right shift of signed lanes is
// arithmetic, of unsigned lanes logical, as the element type dictates.
#define SIMDCV_EMU_SHIFTQ_N(suffix, VT, ET, N)                                \
  inline VT vshlq_n_##suffix(VT a, int n) {                                   \
    assert(n >= 0 && n < static_cast<int>(8 * sizeof(ET)));                   \
    return simdcv::neon_emu_detail::map1(                                     \
        a, [n](ET x) { return static_cast<ET>(x << n); });                    \
  }                                                                           \
  inline VT vshrq_n_##suffix(VT a, int n) {                                   \
    assert(n >= 1 && n <= static_cast<int>(8 * sizeof(ET)));                  \
    const int eff = n >= static_cast<int>(8 * sizeof(ET))                     \
                        ? static_cast<int>(8 * sizeof(ET)) - 1                \
                        : n;                                                  \
    if (n >= static_cast<int>(8 * sizeof(ET)) && !std::is_signed_v<ET>)       \
      return VT{};                                                            \
    return simdcv::neon_emu_detail::map1(                                     \
        a, [eff](ET x) { return static_cast<ET>(x >> eff); });                \
  }                                                                           \
  inline VT vrshrq_n_##suffix(VT a, int n) {                                  \
    assert(n >= 1 && n <= static_cast<int>(8 * sizeof(ET)));                  \
    using W = simdcv::neon_emu_detail::Wider_t<ET>;                           \
    return simdcv::neon_emu_detail::map1(a, [n](ET x) {                       \
      return static_cast<ET>((static_cast<W>(x) + (W{1} << (n - 1))) >> n);   \
    });                                                                       \
  }                                                                           \
  inline VT vsraq_n_##suffix(VT acc, VT a, int n) {                           \
    return acc + vshrq_n_##suffix(a, n);                                      \
  }                                                                           \
  inline VT vrsraq_n_##suffix(VT acc, VT a, int n) {                          \
    return acc + vrshrq_n_##suffix(a, n);                                     \
  }

SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_SHIFTQ_N)
#undef SIMDCV_EMU_SHIFTQ_N

// ---- shift by signed vector (vshl): negative counts shift right ---------------
#define SIMDCV_EMU_VSHLQ(suffix, VT, ET, N, SVT)                              \
  inline VT vshlq_##suffix(VT a, SVT count) {                                 \
    VT r{};                                                                   \
    constexpr int bits = static_cast<int>(8 * sizeof(ET));                    \
    for (int i = 0; i < (N); ++i) {                                           \
      const int c = static_cast<int>(                                         \
          static_cast<std::int8_t>(count[i] & 0xff));                         \
      if (c >= bits) {                                                        \
        r[i] = 0;                                                             \
      } else if (c >= 0) {                                                    \
        r[i] = static_cast<ET>(a[i] << c);                                    \
      } else if (c > -bits) {                                                 \
        r[i] = static_cast<ET>(a[i] >> -c);                                   \
      } else {                                                                \
        r[i] = static_cast<ET>(std::is_signed_v<ET> ? (a[i] >> (bits - 1)) : 0); \
      }                                                                       \
    }                                                                         \
    return r;                                                                 \
  }
SIMDCV_EMU_VSHLQ(s16, int16x8_t, std::int16_t, 8, int16x8_t)
SIMDCV_EMU_VSHLQ(u16, uint16x8_t, std::uint16_t, 8, int16x8_t)
#undef SIMDCV_EMU_VSHLQ

// ---- widening shift left: vshll_n ---------------------------------------------
#define SIMDCV_EMU_SHLL(nsuf, NDT, wsuf, WQT, NET, WET, N)                    \
  inline WQT vshll_n_##nsuf(NDT a, int n) {                                   \
    assert(n >= 0 && n <= static_cast<int>(8 * sizeof(NET)));                 \
    WQT r{};                                                                  \
    for (int i = 0; i < (N); ++i) r[i] = static_cast<WET>(a[i]) << n;         \
    return r;                                                                 \
  }
SIMDCV_EMU_FOR_NARROW(SIMDCV_EMU_SHLL)
#undef SIMDCV_EMU_SHLL

// ---- narrowing shifts: vshrn_n (truncate), vrshrn_n (round) --------------------
#define SIMDCV_EMU_SHRN(nsuf, NDT, wsuf, WQT, NET, WET, N)                    \
  inline NDT vshrn_n_##wsuf(WQT a, int n) {                                   \
    assert(n >= 1 && n <= static_cast<int>(8 * sizeof(NET)));                 \
    NDT r{};                                                                  \
    for (int i = 0; i < (N); ++i) r[i] = static_cast<NET>(a[i] >> n);         \
    return r;                                                                 \
  }                                                                           \
  inline NDT vrshrn_n_##wsuf(WQT a, int n) {                                  \
    assert(n >= 1 && n <= static_cast<int>(8 * sizeof(NET)));                 \
    NDT r{};                                                                  \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = static_cast<NET>((a[i] + (WET{1} << (n - 1))) >> n);             \
    return r;                                                                 \
  }
SIMDCV_EMU_FOR_NARROW(SIMDCV_EMU_SHRN)
#undef SIMDCV_EMU_SHRN

// ---- saturating narrows: vqmovn, vqmovun, vmovn --------------------------------
#define SIMDCV_EMU_MOVN(nsuf, NDT, wsuf, WQT, NET, WET, N)                    \
  inline NDT vmovn_##wsuf(WQT a) {                                            \
    NDT r{};                                                                  \
    for (int i = 0; i < (N); ++i) r[i] = static_cast<NET>(a[i]);              \
    return r;                                                                 \
  }                                                                           \
  inline NDT vqmovn_##wsuf(WQT a) {                                           \
    NDT r{};                                                                  \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = simdcv::neon_emu_detail::sat<NET>(a[i]);                         \
    return r;                                                                 \
  }
SIMDCV_EMU_FOR_NARROW(SIMDCV_EMU_MOVN)
#undef SIMDCV_EMU_MOVN

// Signed wide -> unsigned narrow with saturation at zero.
#define SIMDCV_EMU_QMOVUN(nsuf, NDT, wsuf, WQT, NET, WET, N)                  \
  inline NDT vqmovun_##wsuf(WQT a) {                                          \
    NDT r{};                                                                  \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = simdcv::neon_emu_detail::sat<NET>(a[i]);                         \
    return r;                                                                 \
  }
SIMDCV_EMU_QMOVUN(u8, uint8x8_t, s16, int16x8_t, std::uint8_t, std::int16_t, 8)
#undef SIMDCV_EMU_QMOVUN

// Saturating narrowing right shifts (used by fixed-point filter kernels).
#define SIMDCV_EMU_QSHRN(nsuf, NDT, wsuf, WQT, NET, WET, N)                   \
  inline NDT vqshrn_n_##wsuf(WQT a, int n) {                                  \
    assert(n >= 1 && n <= static_cast<int>(8 * sizeof(NET)));                 \
    NDT r{};                                                                  \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = simdcv::neon_emu_detail::sat<NET>(a[i] >> n);                    \
    return r;                                                                 \
  }                                                                           \
  inline NDT vqrshrn_n_##wsuf(WQT a, int n) {                                 \
    assert(n >= 1 && n <= static_cast<int>(8 * sizeof(NET)));                 \
    NDT r{};                                                                  \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = simdcv::neon_emu_detail::sat<NET>((a[i] + (WET{1} << (n - 1))) >> n); \
    return r;                                                                 \
  }
SIMDCV_EMU_FOR_NARROW(SIMDCV_EMU_QSHRN)
#undef SIMDCV_EMU_QSHRN

inline uint8x8_t vqrshrun_n_s16(int16x8_t a, int n) {
  assert(n >= 1 && n <= 8);
  uint8x8_t r{};
  for (int i = 0; i < 8; ++i)
    r[i] = simdcv::neon_emu_detail::sat<std::uint8_t>(
        (a[i] + (std::int16_t{1} << (n - 1))) >> n);
  return r;
}

// ---- conversions int <-> float ---------------------------------------------------
// vcvt*_s32_f32 truncates toward zero and saturates; NaN converts to 0.
// (On x86, cvttps2dq returns INT_MIN for out-of-range/NaN — we fix those
// lanes up so the emulation matches ARM hardware bit-exactly.)
inline int32x4_t vcvtq_s32_f32(float32x4_t a) {
#if defined(SIMDCV_NEON_EMU_SSE2)
  const __m128 v = simdcv::neon_emu_detail::to_m128(a);
  __m128i t = _mm_cvttps_epi32(v);  // truncate; overflow/NaN -> INT_MIN
  // Positive overflow lanes (v >= 2^31) must saturate to INT_MAX.
  const __m128 too_big = _mm_cmpge_ps(v, _mm_set1_ps(2147483648.0f));
  t = _mm_xor_si128(t, _mm_and_si128(_mm_castps_si128(too_big),
                                     _mm_set1_epi32(-1) /* flips INT_MIN->INT_MAX-ish */));
  // xor INT_MIN with all-ones gives INT_MAX exactly.
  // NaN lanes must become 0.
  const __m128 is_nan = _mm_cmpunord_ps(v, v);
  t = _mm_andnot_si128(_mm_castps_si128(is_nan), t);
  return simdcv::neon_emu_detail::from_m128i<int32x4_t>(t);
#else
  return simdcv::neon_emu_detail::mapTo<int32x4_t>(a, [](float x) -> std::int32_t {
    if (x != x) return 0;
    if (x >= 2147483648.0f) return 2147483647;
    if (x <= -2147483648.0f) return std::numeric_limits<std::int32_t>::min();
    return static_cast<std::int32_t>(x);
  });
#endif
}

inline uint32x4_t vcvtq_u32_f32(float32x4_t a) {
  return simdcv::neon_emu_detail::mapTo<uint32x4_t>(a, [](float x) -> std::uint32_t {
    if (!(x > 0.0f)) return 0;  // negatives and NaN saturate to 0
    if (x >= 4294967296.0f) return 4294967295u;
    return static_cast<std::uint32_t>(x);
  });
}

inline float32x4_t vcvtq_f32_s32(int32x4_t a) {
#if defined(SIMDCV_NEON_EMU_SSE2)
  return simdcv::neon_emu_detail::from_m128(
      _mm_cvtepi32_ps(simdcv::neon_emu_detail::to_m128i(a)));
#else
  return simdcv::neon_emu_detail::mapTo<float32x4_t>(
      a, [](std::int32_t x) { return static_cast<float>(x); });
#endif
}
inline float32x4_t vcvtq_f32_u32(uint32x4_t a) {
  return simdcv::neon_emu_detail::mapTo<float32x4_t>(
      a, [](std::uint32_t x) { return static_cast<float>(x); });
}

// ARMv8 round-to-nearest-even conversion (vcvtnq). Saturating, NaN -> 0.
inline int32x4_t vcvtnq_s32_f32(float32x4_t a) {
#if defined(SIMDCV_NEON_EMU_SSE2)
  const __m128 v = simdcv::neon_emu_detail::to_m128(a);
  __m128i t = _mm_cvtps_epi32(v);  // nearest-even under default MXCSR
  const __m128 too_big = _mm_cmpge_ps(v, _mm_set1_ps(2147483648.0f));
  t = _mm_xor_si128(t, _mm_and_si128(_mm_castps_si128(too_big), _mm_set1_epi32(-1)));
  const __m128 is_nan = _mm_cmpunord_ps(v, v);
  t = _mm_andnot_si128(_mm_castps_si128(is_nan), t);
  return simdcv::neon_emu_detail::from_m128i<int32x4_t>(t);
#else
  return simdcv::neon_emu_detail::mapTo<int32x4_t>(a, [](float x) -> std::int32_t {
    if (x != x) return 0;
    if (x >= 2147483648.0f) return 2147483647;
    if (x <= -2147483648.0f) return std::numeric_limits<std::int32_t>::min();
    return static_cast<std::int32_t>(__builtin_rintf(x));
  });
#endif
}

// Fixed-point conversions: vcvtq_n_* (n fractional bits).
inline float32x4_t vcvtq_n_f32_s32(int32x4_t a, int n) {
  assert(n >= 1 && n <= 32);
  const float scale = 1.0f / static_cast<float>(1ull << n);
  return vcvtq_f32_s32(a) * vdupq_n_f32(scale);
}
inline int32x4_t vcvtq_n_s32_f32(float32x4_t a, int n) {
  assert(n >= 1 && n <= 32);
  const float scale = static_cast<float>(1ull << n);
  return vcvtq_s32_f32(a * vdupq_n_f32(scale));
}
inline uint32x4_t vcvtq_n_u32_f32(float32x4_t a, int n) {
  assert(n >= 1 && n <= 32);
  const float scale = static_cast<float>(1ull << n);
  return vcvtq_u32_f32(a * vdupq_n_f32(scale));
}
