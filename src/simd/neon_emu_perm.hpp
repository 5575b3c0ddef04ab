// NEON intrinsics emulation — permutes, reversals, zips, table lookups and
// the (de)interleaving structure loads/stores vld2/vld3/vld4, vst2/vst3/vst4.
#pragma once

#include "simd/neon_emu_traits.hpp"

// ---- vext: extract a vector from a pair at a lane offset ----------------------
#define SIMDCV_EMU_EXTQ(suffix, VT, ET, N)                                    \
  inline VT vextq_##suffix(VT a, VT b, int n) {                               \
    assert(n >= 0 && n < (N));                                                \
    VT r{};                                                                   \
    for (int i = 0; i < (N); ++i)                                             \
      r[i] = (i + n < (N)) ? a[i + n] : b[i + n - (N)];                       \
    return r;                                                                 \
  }
SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_EXTQ)
SIMDCV_EMU_FOR_F32_Q(SIMDCV_EMU_EXTQ)
#undef SIMDCV_EMU_EXTQ

// ---- reversals: vrev64 / vrev32 / vrev16 ---------------------------------------
// vrevN reverses elements within each N-bit group.
#define SIMDCV_EMU_REV(name, suffix, VT, ET, N, GROUP)                        \
  inline VT name##_##suffix(VT a) {                                           \
    constexpr int g = (GROUP) / (8 * static_cast<int>(sizeof(ET)));           \
    VT r{};                                                                   \
    for (int i = 0; i < (N); ++i) {                                           \
      const int base = (i / g) * g;                                           \
      r[i] = a[base + (g - 1 - (i - base))];                                  \
    }                                                                         \
    return r;                                                                 \
  }

SIMDCV_EMU_REV(vrev64q, u8, uint8x16_t, std::uint8_t, 16, 64)
SIMDCV_EMU_REV(vrev64q, s16, int16x8_t, std::int16_t, 8, 64)
SIMDCV_EMU_REV(vrev32q, u16, uint16x8_t, std::uint16_t, 8, 32)
SIMDCV_EMU_REV(vrev16q, u8, uint8x16_t, std::uint8_t, 16, 16)
#undef SIMDCV_EMU_REV

// ---- zip / unzip / transpose (return x2 structs) --------------------------------
#define SIMDCV_EMU_ZIP(suffix, VT, ET, N, X2)                                 \
  inline X2 vzip_##suffix(VT a, VT b) {                                       \
    X2 r{};                                                                   \
    for (int i = 0; i < (N) / 2; ++i) {                                       \
      r.val[0][2 * i] = a[i];                                                 \
      r.val[0][2 * i + 1] = b[i];                                             \
      r.val[1][2 * i] = a[(N) / 2 + i];                                       \
      r.val[1][2 * i + 1] = b[(N) / 2 + i];                                   \
    }                                                                         \
    return r;                                                                 \
  }                                                                           \
  inline X2 vuzp_##suffix(VT a, VT b) {                                       \
    X2 r{};                                                                   \
    for (int i = 0; i < (N) / 2; ++i) {                                       \
      r.val[0][i] = a[2 * i];                                                 \
      r.val[0][(N) / 2 + i] = b[2 * i];                                       \
      r.val[1][i] = a[2 * i + 1];                                             \
      r.val[1][(N) / 2 + i] = b[2 * i + 1];                                   \
    }                                                                         \
    return r;                                                                 \
  }                                                                           \
  inline X2 vtrn_##suffix(VT a, VT b) {                                       \
    X2 r{};                                                                   \
    for (int i = 0; i < (N) / 2; ++i) {                                       \
      r.val[0][2 * i] = a[2 * i];                                             \
      r.val[0][2 * i + 1] = b[2 * i];                                         \
      r.val[1][2 * i] = a[2 * i + 1];                                         \
      r.val[1][2 * i + 1] = b[2 * i + 1];                                     \
    }                                                                         \
    return r;                                                                 \
  }

SIMDCV_EMU_ZIP(u8, uint8x8_t, std::uint8_t, 8, uint8x8x2_t)

#define SIMDCV_EMU_ZIPQ(suffix, VT, ET, N, X2)                                \
  inline X2 vzipq_##suffix(VT a, VT b) {                                      \
    X2 r{};                                                                   \
    for (int i = 0; i < (N) / 2; ++i) {                                       \
      r.val[0][2 * i] = a[i];                                                 \
      r.val[0][2 * i + 1] = b[i];                                             \
      r.val[1][2 * i] = a[(N) / 2 + i];                                       \
      r.val[1][2 * i + 1] = b[(N) / 2 + i];                                   \
    }                                                                         \
    return r;                                                                 \
  }                                                                           \
  inline X2 vuzpq_##suffix(VT a, VT b) {                                      \
    X2 r{};                                                                   \
    for (int i = 0; i < (N) / 2; ++i) {                                       \
      r.val[0][i] = a[2 * i];                                                 \
      r.val[0][(N) / 2 + i] = b[2 * i];                                       \
      r.val[1][i] = a[2 * i + 1];                                             \
      r.val[1][(N) / 2 + i] = b[2 * i + 1];                                   \
    }                                                                         \
    return r;                                                                 \
  }                                                                           \
  inline X2 vtrnq_##suffix(VT a, VT b) {                                      \
    X2 r{};                                                                   \
    for (int i = 0; i < (N) / 2; ++i) {                                       \
      r.val[0][2 * i] = a[2 * i];                                             \
      r.val[0][2 * i + 1] = b[2 * i];                                         \
      r.val[1][2 * i] = a[2 * i + 1];                                         \
      r.val[1][2 * i + 1] = b[2 * i + 1];                                     \
    }                                                                         \
    return r;                                                                 \
  }

SIMDCV_EMU_ZIPQ(s16, int16x8_t, std::int16_t, 8, int16x8x2_t)
SIMDCV_EMU_ZIPQ(s32, int32x4_t, std::int32_t, 4, int32x4x2_t)
#undef SIMDCV_EMU_ZIP
#undef SIMDCV_EMU_ZIPQ

// ---- table lookup: vtbl1 (out-of-range indices yield 0) -------------------------
inline uint8x8_t vtbl1_u8(uint8x8_t table, uint8x8_t idx) {
  uint8x8_t r{};
  for (int i = 0; i < 8; ++i) r[i] = idx[i] < 8 ? table[idx[i]] : 0;
  return r;
}
inline uint8x8_t vtbl2_u8(uint8x8x2_t table, uint8x8_t idx) {
  uint8x8_t r{};
  for (int i = 0; i < 8; ++i) {
    const std::uint8_t u = idx[i];
    r[i] = u < 8 ? table.val[0][u] : (u < 16 ? table.val[1][u - 8] : 0);
  }
  return r;
}
// vtbx: like vtbl but out-of-range lanes keep the accumulator value.
inline uint8x8_t vtbx1_u8(uint8x8_t acc, uint8x8_t table, uint8x8_t idx) {
  uint8x8_t r = acc;
  for (int i = 0; i < 8; ++i)
    if (idx[i] < 8) r[i] = table[idx[i]];
  return r;
}

// ---- vdup_lane: broadcast one lane --------------------------------------------
#define SIMDCV_EMU_DUP_LANE(suffix, DT, QT, ND, NQ)                           \
  inline DT vdup_lane_##suffix(DT v, int lane) {                              \
    assert(lane >= 0 && lane < (ND));                                         \
    DT r{};                                                                   \
    for (int i = 0; i < (ND); ++i) r[i] = v[lane];                            \
    return r;                                                                 \
  }                                                                           \
  inline QT vdupq_lane_##suffix(DT v, int lane) {                             \
    assert(lane >= 0 && lane < (ND));                                         \
    QT r{};                                                                   \
    for (int i = 0; i < (NQ); ++i) r[i] = v[lane];                            \
    return r;                                                                 \
  }
SIMDCV_EMU_DUP_LANE(s16, int16x4_t, int16x8_t, 4, 8)
#undef SIMDCV_EMU_DUP_LANE

// ---- interleaved structure loads / stores ---------------------------------------
// vldK reads K-element records and splits them into K vectors (deinterleave);
// vstK is the inverse. Provided for the types image kernels use.
#define SIMDCV_EMU_LDSTQ_INTERLEAVED(K, suffix, VT, ET, N, XK)                \
  inline XK vld##K##q_##suffix(const ET* p) {                                 \
    XK r{};                                                                   \
    for (int i = 0; i < (N); ++i)                                             \
      for (int k = 0; k < (K); ++k) r.val[k][i] = p[(K)*i + k];               \
    return r;                                                                 \
  }                                                                           \
  inline void vst##K##q_##suffix(ET* p, XK v) {                               \
    for (int i = 0; i < (N); ++i)                                             \
      for (int k = 0; k < (K); ++k) p[(K)*i + k] = v.val[k][i];               \
  }

SIMDCV_EMU_LDSTQ_INTERLEAVED(2, u8, uint8x16_t, std::uint8_t, 16, uint8x16x2_t)
SIMDCV_EMU_LDSTQ_INTERLEAVED(3, u8, uint8x16_t, std::uint8_t, 16, uint8x16x3_t)
SIMDCV_EMU_LDSTQ_INTERLEAVED(4, f32, float32x4_t, float, 4, float32x4x4_t)
#undef SIMDCV_EMU_LDSTQ_INTERLEAVED
