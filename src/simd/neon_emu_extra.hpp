// NEON intrinsics emulation — additional families: broadcast/lane loads and
// stores, vcreate, saturating negate, saturating doubling multiply-high
// (vqdmulh/vqrdmulh, the fixed-point DSP workhorses), and shift-with-insert
// (vsli/vsri).
#pragma once

#include "simd/neon_emu_traits.hpp"

// ---- vld1_dup / vld1q_dup: load one element and broadcast ----------------------
#define SIMDCV_EMU_LD_DUP(suffix, VT, ET, N)                                  \
  inline VT vld1_dup_##suffix(const ET* p) { return vdup_n_##suffix(*p); }
#define SIMDCV_EMU_LDQ_DUP(suffix, VT, ET, N)                                 \
  inline VT vld1q_dup_##suffix(const ET* p) { return vdupq_n_##suffix(*p); }
SIMDCV_EMU_FOR_INT_D(SIMDCV_EMU_LD_DUP)
SIMDCV_EMU_FOR_F32_Q(SIMDCV_EMU_LDQ_DUP)
#undef SIMDCV_EMU_LD_DUP
#undef SIMDCV_EMU_LDQ_DUP

// ---- vld1_lane / vst1_lane: load/store a single lane ----------------------------
#define SIMDCV_EMU_LDQ_LANE(suffix, VT, ET, N)                                \
  inline VT vld1q_lane_##suffix(const ET* p, VT v, int lane) {                \
    assert(lane >= 0 && lane < (N));                                          \
    v[lane] = *p;                                                             \
    return v;                                                                 \
  }                                                                           \
  inline void vst1q_lane_##suffix(ET* p, VT v, int lane) {                    \
    assert(lane >= 0 && lane < (N));                                          \
    *p = v[lane];                                                             \
  }
SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_LDQ_LANE)
#undef SIMDCV_EMU_LDQ_LANE

// ---- vcreate: build a D register from a 64-bit literal --------------------------
#define SIMDCV_EMU_CREATE(suffix, VT, ET, N)                                  \
  inline VT vcreate_##suffix(std::uint64_t bits) {                            \
    return simdcv::neon_emu_detail::bitcast<VT>(bits);                        \
  }
SIMDCV_EMU_FOR_INT_D(SIMDCV_EMU_CREATE)
#undef SIMDCV_EMU_CREATE

// ---- vqneg: saturating negate (INT_MIN -> INT_MAX) ------------------------------
#define SIMDCV_EMU_QNEG(name, suffix, VT, ET)                                 \
  inline VT name##_##suffix(VT a) {                                           \
    using W = simdcv::neon_emu_detail::Wider_t<ET>;                           \
    return simdcv::neon_emu_detail::map1(a, [](ET x) {                        \
      return simdcv::neon_emu_detail::sat<ET>(-static_cast<W>(x));            \
    });                                                                       \
  }
SIMDCV_EMU_QNEG(vqneg, s32, int32x2_t, std::int32_t)
SIMDCV_EMU_QNEG(vqnegq, s8, int8x16_t, std::int8_t)
SIMDCV_EMU_QNEG(vqnegq, s16, int16x8_t, std::int16_t)
#undef SIMDCV_EMU_QNEG

// ---- vqdmulh / vqrdmulh: saturating doubling multiply returning high half -------
// r = sat( (2*a*b) >> bits ), with optional rounding. Saturation only
// triggers for a == b == INT_MIN.
#define SIMDCV_EMU_QDMULH(name, suffix, VT, ET, BITS, ROUND)                  \
  inline VT name##_##suffix(VT a, VT b) {                                     \
    /* Double-wide type: 2*INT_MIN^2 == 2^(2*BITS-1) overflows the           \
       single-step wider type, so widen twice. */                             \
    using W = simdcv::neon_emu_detail::Wider_t<                               \
        simdcv::neon_emu_detail::Wider_t<ET>>;                                \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) {               \
      const W prod = static_cast<W>(2) * static_cast<W>(x) * static_cast<W>(y) + \
                     (ROUND ? (W{1} << ((BITS)-1)) : W{0});                   \
      return simdcv::neon_emu_detail::sat<ET>(prod >> (BITS));                \
    });                                                                       \
  }
SIMDCV_EMU_QDMULH(vqdmulhq, s16, int16x8_t, std::int16_t, 16, false)
SIMDCV_EMU_QDMULH(vqdmulhq, s32, int32x4_t, std::int32_t, 32, false)
SIMDCV_EMU_QDMULH(vqrdmulhq, s16, int16x8_t, std::int16_t, 16, true)
#undef SIMDCV_EMU_QDMULH

// ---- saturating doubling widening multiply: vqdmull ------------------------------
inline int32x4_t vqdmull_s16(int16x4_t a, int16x4_t b) {
  int32x4_t r{};
  for (int i = 0; i < 4; ++i) {
    const std::int64_t p = 2ll * a[i] * b[i];
    r[i] = simdcv::neon_emu_detail::sat<std::int32_t>(p);
  }
  return r;
}

// ---- vsli_n / vsri_n: shift and insert -------------------------------------------
// vsli: (a & ~(mask << n)) | (b << n);  vsri: (a & ~(mask >> n)) | (b >> n)
// where mask is all-ones; shifts are on the unsigned bit pattern.
#define SIMDCV_EMU_SLI(name, suffix, VT, ET, N, LEFT)                         \
  inline VT name##_##suffix(VT a, VT b, int n) {                              \
    using U = std::make_unsigned_t<ET>;                                       \
    constexpr int bits = static_cast<int>(8 * sizeof(ET));                    \
    assert(LEFT ? (n >= 0 && n < bits) : (n >= 1 && n <= bits));              \
    VT r{};                                                                   \
    for (int i = 0; i < (N); ++i) {                                           \
      const U ua = static_cast<U>(a[i]);                                      \
      const U ub = static_cast<U>(b[i]);                                      \
      U ins, keep;                                                            \
      if (LEFT) {                                                             \
        ins = static_cast<U>(ub << n);                                        \
        keep = static_cast<U>(~(static_cast<U>(~U{0}) << n));                 \
      } else {                                                                \
        ins = static_cast<U>(n == bits ? U{0} : ub >> n);                     \
        keep = static_cast<U>(n == bits ? ~U{0}                               \
                                        : ~(static_cast<U>(~U{0}) >> n));     \
      }                                                                       \
      r[i] = static_cast<ET>((ua & keep) | ins);                              \
    }                                                                         \
    return r;                                                                 \
  }
#define SIMDCV_EMU_SLI_Q(suffix, VT, ET, N) \
  SIMDCV_EMU_SLI(vsliq_n, suffix, VT, ET, N, true) \
  SIMDCV_EMU_SLI(vsriq_n, suffix, VT, ET, N, false)
SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_SLI_Q)
#undef SIMDCV_EMU_SLI
#undef SIMDCV_EMU_SLI_Q
