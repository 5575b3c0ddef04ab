// NEON intrinsics emulation — comparisons, logical operations, bit select.
//
// Comparison results are all-ones / all-zeros masks in the unsigned vector
// type of matching shape, exactly as on hardware, so masks compose with the
// logical family (vandq/vbslq/...) the same way NEON code expects.
#pragma once

#include "simd/neon_emu_traits.hpp"
#include "simd/neon_emu_arith.hpp"  // vabs_f32 for the absolute compares

// ---- compares: eq, ge, gt, le, lt ------------------------------------------
#define SIMDCV_EMU_CMPQ(suffix, VT, ET, N)                                    \
  inline simdcv::neon_emu_detail::VTraits<VT>::uvec vceqq_##suffix(VT a, VT b) { \
    return simdcv::neon_emu_detail::cmp(a, b, [](ET x, ET y) { return x == y; }); \
  }                                                                           \
  inline simdcv::neon_emu_detail::VTraits<VT>::uvec vcgeq_##suffix(VT a, VT b) { \
    return simdcv::neon_emu_detail::cmp(a, b, [](ET x, ET y) { return x >= y; }); \
  }                                                                           \
  inline simdcv::neon_emu_detail::VTraits<VT>::uvec vcgtq_##suffix(VT a, VT b) { \
    return simdcv::neon_emu_detail::cmp(a, b, [](ET x, ET y) { return x > y; }); \
  }                                                                           \
  inline simdcv::neon_emu_detail::VTraits<VT>::uvec vcleq_##suffix(VT a, VT b) { \
    return simdcv::neon_emu_detail::cmp(a, b, [](ET x, ET y) { return x <= y; }); \
  }                                                                           \
  inline simdcv::neon_emu_detail::VTraits<VT>::uvec vcltq_##suffix(VT a, VT b) { \
    return simdcv::neon_emu_detail::cmp(a, b, [](ET x, ET y) { return x < y; }); \
  }

SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_CMPQ)
SIMDCV_EMU_FOR_F32_Q(SIMDCV_EMU_CMPQ)
#undef SIMDCV_EMU_CMPQ

// Absolute compares (float only in NEON): |a| vs |b|.
inline uint32x4_t vcageq_f32(float32x4_t a, float32x4_t b) {
  return vcgeq_f32(vabsq_f32(a), vabsq_f32(b));
}
inline uint32x4_t vcagtq_f32(float32x4_t a, float32x4_t b) {
  return vcgtq_f32(vabsq_f32(a), vabsq_f32(b));
}
inline uint32x4_t vcaleq_f32(float32x4_t a, float32x4_t b) {
  return vcleq_f32(vabsq_f32(a), vabsq_f32(b));
}

// ---- test bits: vtst (a & b != 0) -------------------------------------------
#define SIMDCV_EMU_TSTQ(suffix, VT, ET, N)                                    \
  inline simdcv::neon_emu_detail::VTraits<VT>::uvec vtstq_##suffix(VT a, VT b) { \
    return simdcv::neon_emu_detail::cmp(                                      \
        a, b, [](ET x, ET y) { return (x & y) != 0; });                       \
  }
SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_TSTQ)
#undef SIMDCV_EMU_TSTQ

// ---- logical: and, orr, eor, bic, orn, mvn -----------------------------------
#define SIMDCV_EMU_LOGICQ(suffix, VT, ET, N)                                  \
  inline VT vandq_##suffix(VT a, VT b) { return a & b; }                      \
  inline VT vorrq_##suffix(VT a, VT b) { return a | b; }                      \
  inline VT veorq_##suffix(VT a, VT b) { return a ^ b; }                      \
  inline VT vbicq_##suffix(VT a, VT b) { return a & ~b; }                     \
  inline VT vornq_##suffix(VT a, VT b) { return a | ~b; }                     \
  inline VT vmvnq_##suffix(VT a) { return ~a; }

SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_LOGICQ)
// vmvn does not exist for 64-bit lanes in NEON; and/orr/eor do.
#define SIMDCV_EMU_LOGIC64Q(suffix, VT, ET, N)                                \
  inline VT vandq_##suffix(VT a, VT b) { return a & b; }                      \
  inline VT vorrq_##suffix(VT a, VT b) { return a | b; }                      \
  inline VT veorq_##suffix(VT a, VT b) { return a ^ b; }                      \
  inline VT vbicq_##suffix(VT a, VT b) { return a & ~b; }                     \
  inline VT vornq_##suffix(VT a, VT b) { return a | ~b; }
SIMDCV_EMU_FOR_INT64_Q(SIMDCV_EMU_LOGIC64Q)
#undef SIMDCV_EMU_LOGICQ
#undef SIMDCV_EMU_LOGIC64Q

// ---- bitwise select: r = (mask & a) | (~mask & b) -----------------------------
#define SIMDCV_EMU_BSLQ(suffix, VT, ET, N)                                    \
  inline VT vbslq_##suffix(typename simdcv::neon_emu_detail::VTraits<VT>::uvec m, \
                           VT a, VT b) {                                      \
    using D = simdcv::neon_emu_detail::VTraits<VT>::uvec;                     \
    const D ua = simdcv::neon_emu_detail::bitcast<D>(a);                      \
    const D ub = simdcv::neon_emu_detail::bitcast<D>(b);                      \
    return simdcv::neon_emu_detail::bitcast<VT>((m & ua) | (~m & ub));        \
  }

SIMDCV_EMU_FOR_INT_Q(SIMDCV_EMU_BSLQ)
SIMDCV_EMU_FOR_F32_Q(SIMDCV_EMU_BSLQ)
#undef SIMDCV_EMU_BSLQ

// ---- bit counting ---------------------------------------------------------------
inline uint8x16_t vcntq_u8(uint8x16_t a) {
  return simdcv::neon_emu_detail::map1(a, [](std::uint8_t x) {
    return static_cast<std::uint8_t>(__builtin_popcount(x));
  });
}
inline uint8x8_t vcnt_u8(uint8x8_t a) {
  return simdcv::neon_emu_detail::map1(a, [](std::uint8_t x) {
    return static_cast<std::uint8_t>(__builtin_popcount(x));
  });
}

#define SIMDCV_EMU_CLZ(suffix, VT, ET, N, BITS)                               \
  inline VT vclz_##suffix(VT a) {                                             \
    return simdcv::neon_emu_detail::map1(a, [](ET x) {                        \
      using U = std::make_unsigned_t<ET>;                                     \
      const U u = static_cast<U>(x);                                          \
      return static_cast<ET>(u == 0 ? (BITS)                                  \
                                    : __builtin_clz(u) - (32 - (BITS)));      \
    });                                                                       \
  }
SIMDCV_EMU_CLZ(u32, uint32x2_t, std::uint32_t, 2, 32)
#undef SIMDCV_EMU_CLZ

#define SIMDCV_EMU_CLZQ(suffix, VT, ET, N, BITS)                              \
  inline VT vclzq_##suffix(VT a) {                                            \
    return simdcv::neon_emu_detail::map1(a, [](ET x) {                        \
      using U = std::make_unsigned_t<ET>;                                     \
      const U u = static_cast<U>(x);                                          \
      return static_cast<ET>(u == 0 ? (BITS)                                  \
                                    : __builtin_clz(u) - (32 - (BITS)));      \
    });                                                                       \
  }
SIMDCV_EMU_CLZQ(u8, uint8x16_t, std::uint8_t, 16, 8)
SIMDCV_EMU_CLZQ(u16, uint16x8_t, std::uint16_t, 8, 16)
SIMDCV_EMU_CLZQ(s32, int32x4_t, std::int32_t, 4, 32)
#undef SIMDCV_EMU_CLZQ
