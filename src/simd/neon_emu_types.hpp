// NEON intrinsics emulation for non-ARM hosts — type layer.
//
// Provides the ARM NEON C vector types (int8x16_t, float32x4_t, ...), the
// multi-vector array types (int16x4x2_t, ...), loads/stores, lane access,
// combine/split, duplication, and the full vreinterpret family.
//
// Implementation notes:
//  * Types are GCC vector extensions (the exact mechanism <arm_neon.h> uses
//    on ARM), so element indexing, +,-,* and comparisons lower to SSE on x86
//    with no per-lane scalar code in the common case.
//  * Functions accept runtime ints where arm_neon.h requires immediates;
//    range is checked with assert in debug builds.
//  * Never include this header directly: use "simd/neon_compat.hpp", which
//    selects the genuine <arm_neon.h> when __ARM_NEON is defined.
#pragma once

#if defined(__ARM_NEON)
#error "neon_emu_types.hpp must not be included on a real NEON target"
#endif

#include <cassert>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#define SIMDCV_NEON_EMU_SSE2 1
#endif

// ---- element typedefs (as in arm_neon.h) -----------------------------------
typedef float float32_t;
typedef std::int8_t poly8_t;
typedef std::int16_t poly16_t;

// ---- 64-bit "D" register vector types ---------------------------------------
typedef std::int8_t int8x8_t __attribute__((vector_size(8)));
typedef std::int16_t int16x4_t __attribute__((vector_size(8)));
typedef std::int32_t int32x2_t __attribute__((vector_size(8)));
typedef std::int64_t int64x1_t __attribute__((vector_size(8)));
typedef std::uint8_t uint8x8_t __attribute__((vector_size(8)));
typedef std::uint16_t uint16x4_t __attribute__((vector_size(8)));
typedef std::uint32_t uint32x2_t __attribute__((vector_size(8)));
typedef std::uint64_t uint64x1_t __attribute__((vector_size(8)));
typedef float float32x2_t __attribute__((vector_size(8)));
typedef poly8_t poly8x8_t __attribute__((vector_size(8)));
typedef poly16_t poly16x4_t __attribute__((vector_size(8)));

// ---- 128-bit "Q" register vector types --------------------------------------
typedef std::int8_t int8x16_t __attribute__((vector_size(16)));
typedef std::int16_t int16x8_t __attribute__((vector_size(16)));
typedef std::int32_t int32x4_t __attribute__((vector_size(16)));
typedef std::int64_t int64x2_t __attribute__((vector_size(16)));
typedef std::uint8_t uint8x16_t __attribute__((vector_size(16)));
typedef std::uint16_t uint16x8_t __attribute__((vector_size(16)));
typedef std::uint32_t uint32x4_t __attribute__((vector_size(16)));
typedef std::uint64_t uint64x2_t __attribute__((vector_size(16)));
typedef float float32x4_t __attribute__((vector_size(16)));
typedef poly8_t poly8x16_t __attribute__((vector_size(16)));
typedef poly16_t poly16x8_t __attribute__((vector_size(16)));

// ---- multi-vector (array-of-vector) types -----------------------------------
#define SIMDCV_EMU_ARRAY_TYPES(VT, NAME)        \
  struct NAME##x2_t { VT val[2]; };             \
  struct NAME##x3_t { VT val[3]; };             \
  struct NAME##x4_t { VT val[4]; };

SIMDCV_EMU_ARRAY_TYPES(int8x8_t, int8x8)
SIMDCV_EMU_ARRAY_TYPES(int16x4_t, int16x4)
SIMDCV_EMU_ARRAY_TYPES(int32x2_t, int32x2)
SIMDCV_EMU_ARRAY_TYPES(uint8x8_t, uint8x8)
SIMDCV_EMU_ARRAY_TYPES(uint16x4_t, uint16x4)
SIMDCV_EMU_ARRAY_TYPES(uint32x2_t, uint32x2)
SIMDCV_EMU_ARRAY_TYPES(float32x2_t, float32x2)
SIMDCV_EMU_ARRAY_TYPES(int8x16_t, int8x16)
SIMDCV_EMU_ARRAY_TYPES(int16x8_t, int16x8)
SIMDCV_EMU_ARRAY_TYPES(int32x4_t, int32x4)
SIMDCV_EMU_ARRAY_TYPES(uint8x16_t, uint8x16)
SIMDCV_EMU_ARRAY_TYPES(uint16x8_t, uint16x8)
SIMDCV_EMU_ARRAY_TYPES(uint32x4_t, uint32x4)
SIMDCV_EMU_ARRAY_TYPES(float32x4_t, float32x4)
#undef SIMDCV_EMU_ARRAY_TYPES

namespace simdcv::neon_emu_detail {

template <typename To, typename From>
inline To bitcast(From f) {
  static_assert(sizeof(To) == sizeof(From));
  To t;
  __builtin_memcpy(&t, &f, sizeof(t));
  return t;
}

#if defined(SIMDCV_NEON_EMU_SSE2)
template <typename V> inline __m128i to_m128i(V v) { return bitcast<__m128i>(v); }
inline __m128 to_m128(float32x4_t v) { return bitcast<__m128>(v); }
template <typename V> inline V from_m128i(__m128i v) { return bitcast<V>(v); }
inline float32x4_t from_m128(__m128 v) { return bitcast<float32x4_t>(v); }
#endif

}  // namespace simdcv::neon_emu_detail

// =============================================================================
// Loads and stores: vld1 / vst1 (contiguous, unaligned)
// =============================================================================
#define SIMDCV_EMU_LDST(suffix, VT, ET)                         \
  inline VT vld1_##suffix(const ET* p) {                        \
    VT r;                                                       \
    __builtin_memcpy(&r, p, sizeof(r));                         \
    return r;                                                   \
  }                                                             \
  inline void vst1_##suffix(ET* p, VT v) { __builtin_memcpy(p, &v, sizeof(v)); }

#define SIMDCV_EMU_LDSTQ(suffix, VT, ET)                        \
  inline VT vld1q_##suffix(const ET* p) {                       \
    VT r;                                                       \
    __builtin_memcpy(&r, p, sizeof(r));                         \
    return r;                                                   \
  }                                                             \
  inline void vst1q_##suffix(ET* p, VT v) { __builtin_memcpy(p, &v, sizeof(v)); }

SIMDCV_EMU_LDST(s8, int8x8_t, std::int8_t)
SIMDCV_EMU_LDST(s16, int16x4_t, std::int16_t)
SIMDCV_EMU_LDST(u8, uint8x8_t, std::uint8_t)
SIMDCV_EMU_LDST(f32, float32x2_t, float32_t)
SIMDCV_EMU_LDSTQ(s8, int8x16_t, std::int8_t)
SIMDCV_EMU_LDSTQ(s16, int16x8_t, std::int16_t)
SIMDCV_EMU_LDSTQ(s32, int32x4_t, std::int32_t)
SIMDCV_EMU_LDSTQ(s64, int64x2_t, std::int64_t)
SIMDCV_EMU_LDSTQ(u8, uint8x16_t, std::uint8_t)
SIMDCV_EMU_LDSTQ(u16, uint16x8_t, std::uint16_t)
SIMDCV_EMU_LDSTQ(u32, uint32x4_t, std::uint32_t)
SIMDCV_EMU_LDSTQ(f32, float32x4_t, float32_t)
#undef SIMDCV_EMU_LDST
#undef SIMDCV_EMU_LDSTQ

// =============================================================================
// Duplicate scalar to all lanes: vdup_n / vdupq_n / vmov_n / vmovq_n
// =============================================================================
#define SIMDCV_EMU_DUP(suffix, VT, ET, N)                        \
  inline VT vdup_n_##suffix(ET v) {                              \
    VT r;                                                        \
    for (int i = 0; i < (N); ++i) r[i] = v;                      \
    return r;                                                    \
  }                                                              \
  inline VT vmov_n_##suffix(ET v) { return vdup_n_##suffix(v); }

#define SIMDCV_EMU_DUPQ(suffix, VT, ET, N)                       \
  inline VT vdupq_n_##suffix(ET v) {                             \
    VT r;                                                        \
    for (int i = 0; i < (N); ++i) r[i] = v;                      \
    return r;                                                    \
  }                                                              \
  inline VT vmovq_n_##suffix(ET v) { return vdupq_n_##suffix(v); }

SIMDCV_EMU_DUP(s8, int8x8_t, std::int8_t, 8)
SIMDCV_EMU_DUP(s16, int16x4_t, std::int16_t, 4)
SIMDCV_EMU_DUP(s32, int32x2_t, std::int32_t, 2)
SIMDCV_EMU_DUP(u8, uint8x8_t, std::uint8_t, 8)
SIMDCV_EMU_DUP(u16, uint16x4_t, std::uint16_t, 4)
SIMDCV_EMU_DUP(u32, uint32x2_t, std::uint32_t, 2)
SIMDCV_EMU_DUP(f32, float32x2_t, float32_t, 2)
SIMDCV_EMU_DUPQ(s8, int8x16_t, std::int8_t, 16)
SIMDCV_EMU_DUPQ(s16, int16x8_t, std::int16_t, 8)
SIMDCV_EMU_DUPQ(s32, int32x4_t, std::int32_t, 4)
SIMDCV_EMU_DUPQ(u8, uint8x16_t, std::uint8_t, 16)
SIMDCV_EMU_DUPQ(u16, uint16x8_t, std::uint16_t, 8)
SIMDCV_EMU_DUPQ(u32, uint32x4_t, std::uint32_t, 4)
SIMDCV_EMU_DUPQ(u64, uint64x2_t, std::uint64_t, 2)
SIMDCV_EMU_DUPQ(f32, float32x4_t, float32_t, 4)
#undef SIMDCV_EMU_DUP
#undef SIMDCV_EMU_DUPQ

// =============================================================================
// Lane access: vget_lane / vset_lane (+q)
// =============================================================================
#define SIMDCV_EMU_LANE(suffix, VT, ET, N)                                \
  inline ET vget_lane_##suffix(VT v, int lane) {                          \
    assert(lane >= 0 && lane < (N));                                      \
    return v[lane];                                                       \
  }                                                                       \
  inline VT vset_lane_##suffix(ET x, VT v, int lane) {                    \
    assert(lane >= 0 && lane < (N));                                      \
    v[lane] = x;                                                          \
    return v;                                                             \
  }

#define SIMDCV_EMU_LANEQ(suffix, VT, ET, N)                               \
  inline ET vgetq_lane_##suffix(VT v, int lane) {                         \
    assert(lane >= 0 && lane < (N));                                      \
    return v[lane];                                                       \
  }                                                                       \
  inline VT vsetq_lane_##suffix(ET x, VT v, int lane) {                   \
    assert(lane >= 0 && lane < (N));                                      \
    v[lane] = x;                                                          \
    return v;                                                             \
  }

SIMDCV_EMU_LANE(s16, int16x4_t, std::int16_t, 4)
SIMDCV_EMU_LANE(s32, int32x2_t, std::int32_t, 2)
SIMDCV_EMU_LANE(u8, uint8x8_t, std::uint8_t, 8)
SIMDCV_EMU_LANE(u32, uint32x2_t, std::uint32_t, 2)
SIMDCV_EMU_LANE(f32, float32x2_t, float32_t, 2)
SIMDCV_EMU_LANEQ(s8, int8x16_t, std::int8_t, 16)
SIMDCV_EMU_LANEQ(s16, int16x8_t, std::int16_t, 8)
SIMDCV_EMU_LANEQ(s32, int32x4_t, std::int32_t, 4)
SIMDCV_EMU_LANEQ(u8, uint8x16_t, std::uint8_t, 16)
SIMDCV_EMU_LANEQ(u16, uint16x8_t, std::uint16_t, 8)
SIMDCV_EMU_LANEQ(u32, uint32x4_t, std::uint32_t, 4)
SIMDCV_EMU_LANEQ(u64, uint64x2_t, std::uint64_t, 2)
SIMDCV_EMU_LANEQ(f32, float32x4_t, float32_t, 4)
#undef SIMDCV_EMU_LANE
#undef SIMDCV_EMU_LANEQ

// =============================================================================
// Combine two D vectors into a Q vector; split a Q vector into halves.
// =============================================================================
#define SIMDCV_EMU_COMBINE(suffix, DT, QT, N)                       \
  inline QT vcombine_##suffix(DT lo, DT hi) {                       \
    QT r;                                                           \
    for (int i = 0; i < (N); ++i) {                                 \
      r[i] = lo[i];                                                 \
      r[(N) + i] = hi[i];                                           \
    }                                                               \
    return r;                                                       \
  }                                                                 \
  inline DT vget_low_##suffix(QT v) {                               \
    DT r;                                                           \
    for (int i = 0; i < (N); ++i) r[i] = v[i];                      \
    return r;                                                       \
  }                                                                 \
  inline DT vget_high_##suffix(QT v) {                              \
    DT r;                                                           \
    for (int i = 0; i < (N); ++i) r[i] = v[(N) + i];                \
    return r;                                                       \
  }

SIMDCV_EMU_COMBINE(s16, int16x4_t, int16x8_t, 4)
SIMDCV_EMU_COMBINE(u8, uint8x8_t, uint8x16_t, 8)
SIMDCV_EMU_COMBINE(u16, uint16x4_t, uint16x8_t, 4)
SIMDCV_EMU_COMBINE(u32, uint32x2_t, uint32x4_t, 2)
#undef SIMDCV_EMU_COMBINE

// =============================================================================
// vreinterpret: bit pattern reinterpretation between same-width vectors.
// Generated as the full cross product over the common integer/float types.
// =============================================================================
#define SIMDCV_EMU_REINTERP_ONE(dsuf, DT, ssuf, ST)                      \
  inline DT vreinterpret_##dsuf##_##ssuf(ST v) {                         \
    return simdcv::neon_emu_detail::bitcast<DT>(v);                      \
  }

#define SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, ssuf, ST)                    \
  inline DT vreinterpretq_##dsuf##_##ssuf(ST v) {                        \
    return simdcv::neon_emu_detail::bitcast<DT>(v);                      \
  }

#define SIMDCV_EMU_REINTERP_ROW(dsuf, DT)                 \
  SIMDCV_EMU_REINTERP_ONE(dsuf, DT, s8, int8x8_t)         \
  SIMDCV_EMU_REINTERP_ONE(dsuf, DT, s16, int16x4_t)       \
  SIMDCV_EMU_REINTERP_ONE(dsuf, DT, s32, int32x2_t)       \
  SIMDCV_EMU_REINTERP_ONE(dsuf, DT, s64, int64x1_t)       \
  SIMDCV_EMU_REINTERP_ONE(dsuf, DT, u8, uint8x8_t)        \
  SIMDCV_EMU_REINTERP_ONE(dsuf, DT, u16, uint16x4_t)      \
  SIMDCV_EMU_REINTERP_ONE(dsuf, DT, u32, uint32x2_t)      \
  SIMDCV_EMU_REINTERP_ONE(dsuf, DT, u64, uint64x1_t)      \
  SIMDCV_EMU_REINTERP_ONE(dsuf, DT, f32, float32x2_t)

#define SIMDCV_EMU_REINTERP_ROW_Q(dsuf, DT)               \
  SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, s8, int8x16_t)      \
  SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, s16, int16x8_t)     \
  SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, s32, int32x4_t)     \
  SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, s64, int64x2_t)     \
  SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, u8, uint8x16_t)     \
  SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, u16, uint16x8_t)    \
  SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, u32, uint32x4_t)    \
  SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, u64, uint64x2_t)    \
  SIMDCV_EMU_REINTERP_ONE_Q(dsuf, DT, f32, float32x4_t)

SIMDCV_EMU_REINTERP_ROW(u8, uint8x8_t)
SIMDCV_EMU_REINTERP_ROW_Q(s8, int8x16_t)
SIMDCV_EMU_REINTERP_ROW_Q(s16, int16x8_t)
SIMDCV_EMU_REINTERP_ROW_Q(s32, int32x4_t)
SIMDCV_EMU_REINTERP_ROW_Q(u8, uint8x16_t)
SIMDCV_EMU_REINTERP_ROW_Q(u16, uint16x8_t)
SIMDCV_EMU_REINTERP_ROW_Q(u32, uint32x4_t)
SIMDCV_EMU_REINTERP_ROW_Q(f32, float32x4_t)
#undef SIMDCV_EMU_REINTERP_ONE
#undef SIMDCV_EMU_REINTERP_ONE_Q
#undef SIMDCV_EMU_REINTERP_ROW
#undef SIMDCV_EMU_REINTERP_ROW_Q

// Note: the self-reinterpret (e.g. vreinterpretq_f32_f32) is generated too;
// arm_neon.h omits it, but it is harmless and keeps the macro table regular.
