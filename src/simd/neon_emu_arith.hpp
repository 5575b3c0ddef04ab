// NEON intrinsics emulation — arithmetic families.
//
// Covers: add/sub (+ saturating, halving, widening), multiply (+ accumulate,
// subtract, widening, by-scalar), abs/neg/absolute-difference, min/max,
// pairwise add/min/max (+ widening, accumulating), and the reciprocal /
// reciprocal-sqrt estimate-and-step ops.
//
// Semantics follow the ARMv7 Advanced SIMD specification:
//  * plain integer ops wrap modulo 2^n,
//  * vq* ops saturate to the element range,
//  * vh* halve with truncation toward negative infinity, vrh* round,
//  * estimates (vrecpe/vrsqrte) are allowed by the ARM ARM to differ between
//    implementations; this emulation returns the correctly rounded value,
//    which is within the architecture's error bound.
#pragma once

#include <cmath>

#include "simd/neon_emu_traits.hpp"

// GCC vector extensions lower +,-,* directly to SIMD; use them for the plain
// wrapping ops. Unsigned overflow wraps by definition; signed vector ops on
// GCC vectors also wrap (vector arithmetic is defined modulo 2^n).

#define SIMDCV_EMU_ADDSUBQ(suffix, VT, ET, N)                               \
  inline VT vaddq_##suffix(VT a, VT b) { return a + b; }                    \
  inline VT vsubq_##suffix(VT a, VT b) { return a - b; }

SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_ADDSUBQ)
SIMDCV_EMU_FOR_F32_Q(SIMDCV_EMU_ADDSUBQ)
#undef SIMDCV_EMU_ADDSUBQ

// ---- saturating add/sub -----------------------------------------------------
#define SIMDCV_EMU_QADDSUB(prefix, name, suffix, VT, ET, N)                  \
  inline VT prefix##name##_##suffix(VT a, VT b) {                            \
    /* Signed wide type: unsigned subtraction must go negative, not wrap.    \
       The signed wider-of-signed type covers both unsigned sums and signed  \
       differences of ET. */                                                 \
    using W = simdcv::neon_emu_detail::Wider_t<std::make_signed_t<ET>>;      \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) {              \
      return simdcv::neon_emu_detail::sat<ET>(                               \
          static_cast<W>(x) SIMDCV_EMU_OP_##name static_cast<W>(y));         \
    });                                                                      \
  }
#define SIMDCV_EMU_OP_qadd +
#define SIMDCV_EMU_OP_qsub -
#define SIMDCV_EMU_QADD_D(suffix, VT, ET, N) SIMDCV_EMU_QADDSUB(v, qadd, suffix, VT, ET, N)
#define SIMDCV_EMU_QADD_Q(suffix, VT, ET, N) SIMDCV_EMU_QADDSUB(v, qaddq, suffix, VT, ET, N)
#define SIMDCV_EMU_QSUB_Q(suffix, VT, ET, N) SIMDCV_EMU_QADDSUB(v, qsubq, suffix, VT, ET, N)
// qaddq/qsubq are not operator names; expand OP macros for them too.
#define SIMDCV_EMU_OP_qaddq +
#define SIMDCV_EMU_OP_qsubq -

SIMDCV_EMU_FOR_INT_D(SIMDCV_EMU_QADD_D)
SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_QADD_Q)
SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_QSUB_Q)
#undef SIMDCV_EMU_QADDSUB
#undef SIMDCV_EMU_QADD_D
#undef SIMDCV_EMU_QADD_Q
#undef SIMDCV_EMU_QSUB_Q

// ---- halving add/sub --------------------------------------------------------
// vhadd: (x + y) >> 1 with floor semantics; vrhadd rounds; vhsub truncates
// the difference toward negative infinity.
#define SIMDCV_EMU_HALVINGQ(suffix, VT, ET, N)                                \
  inline VT vhaddq_##suffix(VT a, VT b) {                                     \
    using W = simdcv::neon_emu_detail::Wider_t<ET>;                           \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) {               \
      return static_cast<ET>((static_cast<W>(x) + static_cast<W>(y)) >> 1);   \
    });                                                                       \
  }                                                                           \
  inline VT vrhaddq_##suffix(VT a, VT b) {                                    \
    using W = simdcv::neon_emu_detail::Wider_t<ET>;                           \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) {               \
      return static_cast<ET>((static_cast<W>(x) + static_cast<W>(y) + 1) >> 1); \
    });                                                                       \
  }                                                                           \
  inline VT vhsubq_##suffix(VT a, VT b) {                                     \
    using W = simdcv::neon_emu_detail::Wider_t<ET>;                           \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) {               \
      return static_cast<ET>((static_cast<W>(x) - static_cast<W>(y)) >> 1);   \
    });                                                                       \
  }

SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_HALVINGQ)
#undef SIMDCV_EMU_HALVINGQ

// ---- multiply, multiply-accumulate, multiply-subtract ------------------------
#define SIMDCV_EMU_MULQ(suffix, VT, ET, N)                                    \
  inline VT vmulq_##suffix(VT a, VT b) { return a * b; }                      \
  inline VT vmlaq_##suffix(VT a, VT b, VT c) { return a + b * c; }            \
  inline VT vmlsq_##suffix(VT a, VT b, VT c) { return a - b * c; }

SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_MULQ)
SIMDCV_EMU_FOR_F32_Q(SIMDCV_EMU_MULQ)
#undef SIMDCV_EMU_MULQ

// by-scalar forms ("_n_") for the types NEON provides them on.
#define SIMDCV_EMU_MULQ_N(suffix, VT, ET)                                     \
  inline VT vmulq_n_##suffix(VT a, ET s) { return a * vdupq_n_##suffix(s); }  \
  inline VT vmlaq_n_##suffix(VT a, VT b, ET s) { return a + b * vdupq_n_##suffix(s); } \
  inline VT vmlsq_n_##suffix(VT a, VT b, ET s) { return a - b * vdupq_n_##suffix(s); }

SIMDCV_EMU_MULQ_N(f32, float32x4_t, float)
#undef SIMDCV_EMU_MULQ_N

// ---- widening ("long") add/sub/mul/mla/mls ----------------------------------
#define SIMDCV_EMU_LONG(nsuf, NDT, wsuf, WQT, NET, WET, N)                    \
  inline WQT vaddl_##nsuf(NDT a, NDT b) {                                     \
    WQT r{};                                                                  \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = static_cast<WET>(a[i]) + static_cast<WET>(b[i]);                 \
    return r;                                                                 \
  }                                                                           \
  inline WQT vsubl_##nsuf(NDT a, NDT b) {                                     \
    WQT r{};                                                                  \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = static_cast<WET>(a[i]) - static_cast<WET>(b[i]);                 \
    return r;                                                                 \
  }                                                                           \
  inline WQT vmull_##nsuf(NDT a, NDT b) {                                     \
    WQT r{};                                                                  \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = static_cast<WET>(a[i]) * static_cast<WET>(b[i]);                 \
    return r;                                                                 \
  }                                                                           \
  inline WQT vmlal_##nsuf(WQT acc, NDT a, NDT b) {                            \
    for (int i = 0; i < (N); ++i)                                             \
      acc[i] += static_cast<WET>(a[i]) * static_cast<WET>(b[i]);              \
    return acc;                                                               \
  }                                                                           \
  inline WQT vmlsl_##nsuf(WQT acc, NDT a, NDT b) {                            \
    for (int i = 0; i < (N); ++i)                                             \
      acc[i] -= static_cast<WET>(a[i]) * static_cast<WET>(b[i]);              \
    return acc;                                                               \
  }                                                                           \
  inline WQT vaddw_##nsuf(WQT a, NDT b) {                                     \
    for (int i = 0; i < (N); ++i) a[i] += static_cast<WET>(b[i]);             \
    return a;                                                                 \
  }                                                                           \
  inline WQT vsubw_##nsuf(WQT a, NDT b) {                                     \
    for (int i = 0; i < (N); ++i) a[i] -= static_cast<WET>(b[i]);             \
    return a;                                                                 \
  }

SIMDCV_EMU_FOR_NARROW(SIMDCV_EMU_LONG)
#undef SIMDCV_EMU_LONG

// Widening absolute difference (+ accumulate): vabdl / vabal.
#define SIMDCV_EMU_ABDL(nsuf, NDT, wsuf, WQT, NET, WET, N)                    \
  inline WQT vabdl_##nsuf(NDT a, NDT b) {                                     \
    WQT r{};                                                                  \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = a[i] > b[i] ? static_cast<WET>(a[i]) - static_cast<WET>(b[i])    \
                         : static_cast<WET>(b[i]) - static_cast<WET>(a[i]);   \
    return r;                                                                 \
  }                                                                           \
  inline WQT vabal_##nsuf(WQT acc, NDT a, NDT b) {                            \
    return acc + vabdl_##nsuf(a, b);                                          \
  }
SIMDCV_EMU_FOR_NARROW(SIMDCV_EMU_ABDL)
#undef SIMDCV_EMU_ABDL

// ---- widen ("move long") ----------------------------------------------------
#define SIMDCV_EMU_MOVL(nsuf, NDT, wsuf, WQT, NET, WET, N)                    \
  inline WQT vmovl_##nsuf(NDT a) {                                            \
    WQT r{};                                                                  \
    for (int i = 0; i < (N); ++i) r[i] = static_cast<WET>(a[i]);              \
    return r;                                                                 \
  }
SIMDCV_EMU_FOR_NARROW(SIMDCV_EMU_MOVL)
#undef SIMDCV_EMU_MOVL

// ---- min / max ----------------------------------------------------------------
#define SIMDCV_EMU_MINMAX(suffix, VT, ET, N)                                  \
  inline VT vmin_##suffix(VT a, VT b) {                                       \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) { return x < y ? x : y; }); \
  }                                                                           \
  inline VT vmax_##suffix(VT a, VT b) {                                       \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) { return x > y ? x : y; }); \
  }
#define SIMDCV_EMU_MINMAXQ(suffix, VT, ET, N)                                 \
  inline VT vminq_##suffix(VT a, VT b) {                                      \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) { return x < y ? x : y; }); \
  }                                                                           \
  inline VT vmaxq_##suffix(VT a, VT b) {                                      \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) { return x > y ? x : y; }); \
  }

SIMDCV_EMU_FOR_INT_D(SIMDCV_EMU_MINMAX)
SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_MINMAXQ)
SIMDCV_EMU_FOR_F32_Q(SIMDCV_EMU_MINMAXQ)
#undef SIMDCV_EMU_MINMAX
#undef SIMDCV_EMU_MINMAXQ

// ---- absolute value / negate -------------------------------------------------
// vabs on the most negative signed value wraps (stays INT_MIN); vqabs saturates.
#define SIMDCV_EMU_ABSNEGQ(suffix, VT, ET, N)                                 \
  inline VT vabsq_##suffix(VT a) {                                            \
    return simdcv::neon_emu_detail::map1(a, [](ET x) {                        \
      return static_cast<ET>(x < 0 ? -static_cast<ET>(x) : x);                \
    });                                                                       \
  }                                                                           \
  inline VT vqabsq_##suffix(VT a) {                                           \
    using W = simdcv::neon_emu_detail::Wider_t<ET>;                           \
    return simdcv::neon_emu_detail::map1(a, [](ET x) {                        \
      return simdcv::neon_emu_detail::sat<ET>(                                \
          x < 0 ? -static_cast<W>(x) : static_cast<W>(x));                    \
    });                                                                       \
  }                                                                           \
  inline VT vnegq_##suffix(VT a) { return -a; }

SIMDCV_EMU_ABSNEGQ(s8, int8x16_t, std::int8_t, 16)
SIMDCV_EMU_ABSNEGQ(s16, int16x8_t, std::int16_t, 8)
SIMDCV_EMU_ABSNEGQ(s32, int32x4_t, std::int32_t, 4)
#undef SIMDCV_EMU_ABSNEGQ

inline float32x4_t vabsq_f32(float32x4_t a) {
  return simdcv::neon_emu_detail::map1(a, [](float x) { return std::fabs(x); });
}
inline float32x4_t vnegq_f32(float32x4_t a) { return -a; }

// ---- absolute difference (+ accumulate) ---------------------------------------
// Computed order-insensitively so unsigned inputs never underflow.
#define SIMDCV_EMU_ABDQ(suffix, VT, ET, N)                                    \
  inline VT vabdq_##suffix(VT a, VT b) {                                      \
    return simdcv::neon_emu_detail::map2(a, b, [](ET x, ET y) {               \
      return static_cast<ET>(x > y ? x - y : y - x);                          \
    });                                                                       \
  }                                                                           \
  inline VT vabaq_##suffix(VT acc, VT a, VT b) {                              \
    return acc + vabdq_##suffix(a, b);                                        \
  }

SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_ABDQ)
#undef SIMDCV_EMU_ABDQ

inline float32x4_t vabdq_f32(float32x4_t a, float32x4_t b) { return vabsq_f32(a - b); }

// ---- pairwise ops (D registers only, as in ARMv7) ------------------------------
#define SIMDCV_EMU_PAIRWISE(suffix, VT, ET, N)                                \
  inline VT vpadd_##suffix(VT a, VT b) {                                      \
    VT r{};                                                                   \
    for (int i = 0; i < (N) / 2; ++i) {                                       \
      r[i] = static_cast<ET>(a[2 * i] + a[2 * i + 1]);                        \
      r[(N) / 2 + i] = static_cast<ET>(b[2 * i] + b[2 * i + 1]);              \
    }                                                                         \
    return r;                                                                 \
  }                                                                           \
  inline VT vpmax_##suffix(VT a, VT b) {                                      \
    VT r{};                                                                   \
    for (int i = 0; i < (N) / 2; ++i) {                                       \
      r[i] = a[2 * i] > a[2 * i + 1] ? a[2 * i] : a[2 * i + 1];               \
      r[(N) / 2 + i] = b[2 * i] > b[2 * i + 1] ? b[2 * i] : b[2 * i + 1];     \
    }                                                                         \
    return r;                                                                 \
  }                                                                           \
  inline VT vpmin_##suffix(VT a, VT b) {                                      \
    VT r{};                                                                   \
    for (int i = 0; i < (N) / 2; ++i) {                                       \
      r[i] = a[2 * i] < a[2 * i + 1] ? a[2 * i] : a[2 * i + 1];               \
      r[(N) / 2 + i] = b[2 * i] < b[2 * i + 1] ? b[2 * i] : b[2 * i + 1];     \
    }                                                                         \
    return r;                                                                 \
  }

SIMDCV_EMU_FOR_INT_D(SIMDCV_EMU_PAIRWISE)
SIMDCV_EMU_FOR_F32_D(SIMDCV_EMU_PAIRWISE)
#undef SIMDCV_EMU_PAIRWISE

// ---- pairwise widening add / accumulate ----------------------------------------
// Explicit forms (narrow Q -> wide Q with N wide lanes; narrow D -> wide D).
#define SIMDCV_EMU_PADDL_Q(nsuf, NQT, WQT, NET, WET, NW)                      \
  inline WQT vpaddlq_##nsuf(NQT a) {                                          \
    WQT r{};                                                                  \
    for (int i = 0; i < (NW); ++i)                                            \
      r[i] = static_cast<WET>(a[2 * i]) + static_cast<WET>(a[2 * i + 1]);     \
    return r;                                                                 \
  }                                                                           \
  inline WQT vpadalq_##nsuf(WQT acc, NQT a) {                                 \
    for (int i = 0; i < (NW); ++i)                                            \
      acc[i] += static_cast<WET>(a[2 * i]) + static_cast<WET>(a[2 * i + 1]);  \
    return acc;                                                               \
  }
#define SIMDCV_EMU_PADDL_D(nsuf, NDT, WDT, NET, WET, NW)                      \
  inline WDT vpaddl_##nsuf(NDT a) {                                           \
    WDT r{};                                                                  \
    for (int i = 0; i < (NW); ++i)                                            \
      r[i] = static_cast<WET>(a[2 * i]) + static_cast<WET>(a[2 * i + 1]);     \
    return r;                                                                 \
  }                                                                           \
  inline WDT vpadal_##nsuf(WDT acc, NDT a) {                                  \
    for (int i = 0; i < (NW); ++i)                                            \
      acc[i] += static_cast<WET>(a[2 * i]) + static_cast<WET>(a[2 * i + 1]);  \
    return acc;                                                               \
  }

SIMDCV_EMU_PADDL_Q(u8, uint8x16_t, uint16x8_t, std::uint8_t, std::uint16_t, 8)
SIMDCV_EMU_PADDL_Q(u16, uint16x8_t, uint32x4_t, std::uint16_t, std::uint32_t, 4)
SIMDCV_EMU_PADDL_Q(u32, uint32x4_t, uint64x2_t, std::uint32_t, std::uint64_t, 2)
SIMDCV_EMU_PADDL_D(s16, int16x4_t, int32x2_t, std::int16_t, std::int32_t, 2)
#undef SIMDCV_EMU_PADDL_Q
#undef SIMDCV_EMU_PADDL_D

// ---- reciprocal / rsqrt estimate and Newton step --------------------------------
inline float32x4_t vrecpeq_f32(float32x4_t a) {
  return simdcv::neon_emu_detail::map1(a, [](float x) { return 1.0f / x; });
}
inline float32x4_t vrecpsq_f32(float32x4_t a, float32x4_t b) {
  return simdcv::neon_emu_detail::map2(a, b, [](float x, float y) { return 2.0f - x * y; });
}
inline float32x4_t vrsqrteq_f32(float32x4_t a) {
  return simdcv::neon_emu_detail::map1(a, [](float x) { return 1.0f / std::sqrt(x); });
}
inline float32x4_t vrsqrtsq_f32(float32x4_t a, float32x4_t b) {
  return simdcv::neon_emu_detail::map2(
      a, b, [](float x, float y) { return (3.0f - x * y) / 2.0f; });
}
