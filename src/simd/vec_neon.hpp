// VecTraits<backend::Neon>: the 128-bit ARM backend.
//
// Written against NEON intrinsic names through neon_compat.hpp, which is
// the genuine <arm_neon.h> on ARM and the emulation layer elsewhere, so any
// TU may include this header and the same trait code runs on both (on x86
// it is functional validation, not speed: scalar code behind the names).
//
// NEON's vector types are distinct per element type, so the vs16/vu8/vs32
// shapes below do not convert into one another: a body that selects s16
// lanes must use the typed s16 selects, not the u8 ones. Compare results
// are unsigned masks on NEON; the traits reinterpret them to the compared
// shape, as the x86 traits do, so the and/andNot select idiom is unchanged.
// There is no f64 vocabulary: the dispatchers route NEON's f64 work (the
// scaled converts, scaleAdd, addWeighted) to the scalar arm.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/neon_compat.hpp"
#include "simd/vec.hpp"

namespace simdcv::simd {

template <>
struct VecTraits<backend::Neon> {
  static constexpr const char* name = "neon";
  static constexpr int bits = 128;
  static constexpr int f32_lanes = 4;
  static constexpr int s16_lanes = 8;
  static constexpr int u8_lanes = 16;

  using vf32 = float32x4_t;
  using vs32 = int32x4_t;
  using vs16 = int16x8_t;
  using vu8 = uint8x16_t;
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
  static vf32 loadF32(const float* p) { return vld1q_f32(p); }
  static void storeF32(float* p, vf32 v) { vst1q_f32(p, v); }
  static vf32 setF32(float v) { return vdupq_n_f32(v); }
  static vf32 addF32(vf32 a, vf32 b) { return vaddq_f32(a, b); }
  static vf32 subF32(vf32 a, vf32 b) { return vsubq_f32(a, b); }
  static vf32 mulF32(vf32 a, vf32 b) { return vmulq_f32(a, b); }
  /// a < b ? a : b and a > b ? a : b, the x86 minps/maxps rule (the second
  /// operand on NaN or equality); vminq/vmaxq would propagate NaN instead.
  static vf32 minF32(vf32 a, vf32 b) { return vbslq_f32(vcltq_f32(a, b), a, b); }
  static vf32 maxF32(vf32 a, vf32 b) { return vbslq_f32(vcgtq_f32(a, b), a, b); }
  static vf32 absF32(vf32 v) { return vabsq_f32(v); }
  static vf32 cmpGtF32(vf32 a, vf32 b) {
    return vreinterpretq_f32_u32(vcgtq_f32(a, b));
  }
  static vf32 andF32(vf32 a, vf32 b) {
    return vreinterpretq_f32_u32(vandq_u32(u32(a), u32(b)));
  }
  /// ~mask & v.
  static vf32 andNotF32(vf32 mask, vf32 v) {
    return vreinterpretq_f32_u32(vbicq_u32(u32(v), u32(mask)));
  }
  static vf32 orF32(vf32 a, vf32 b) {
    return vreinterpretq_f32_u32(vorrq_u32(u32(a), u32(b)));
  }

  // ---- f32 <-> s32 ---------------------------------------------------------
  /// Round-to-nearest-even; NEON saturates and zeroes NaN natively, so the
  /// x86 fix-ups have no counterpart here.
  static vs32 cvtF32toS32Sat(vf32 v) { return vcvtnq_s32_f32(v); }
  static vf32 cvtS32toF32(vs32 v) { return vcvtq_f32_s32(v); }

  // ---- widening loads ------------------------------------------------------
  /// Reads exactly f32_lanes bytes.
  static vs32 loadU8AsS32(const std::uint8_t* p) {
    std::uint32_t tmp;
    __builtin_memcpy(&tmp, p, 4);
    const uint16x8_t w = vmovl_u8(vreinterpret_u8_u32(vdup_n_u32(tmp)));
    return vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(w)));
  }
  static vs32 loadS16AsS32(const std::int16_t* p) {
    return vmovl_s16(vld1_s16(p));
  }
  static vs16 loadU8AsS16(const std::uint8_t* p) {
    return vreinterpretq_s16_u16(vmovl_u8(vld1_u8(p)));
  }

  // ---- s16 / u16 -----------------------------------------------------------
  static vs16 loadS16(const std::int16_t* p) { return vld1q_s16(p); }
  static void storeS16(std::int16_t* p, vs16 v) { vst1q_s16(p, v); }
  static vs16 setS16(std::int16_t v) { return vdupq_n_s16(v); }
  static vs16 zeroS16() { return vdupq_n_s16(0); }
  static vs16 addS16(vs16 a, vs16 b) { return vaddq_s16(a, b); }
  static vs16 subS16(vs16 a, vs16 b) { return vsubq_s16(a, b); }
  static vs16 addSatS16(vs16 a, vs16 b) { return vqaddq_s16(a, b); }
  static vs16 subSatS16(vs16 a, vs16 b) { return vqsubq_s16(a, b); }
  static vs16 mulLoS16(vs16 a, vs16 b) { return vmulq_s16(a, b); }
  static vs16 minS16(vs16 a, vs16 b) { return vminq_s16(a, b); }
  static vs16 maxS16(vs16 a, vs16 b) { return vmaxq_s16(a, b); }
  static vs16 cmpGtS16(vs16 a, vs16 b) {
    return vreinterpretq_s16_u16(vcgtq_s16(a, b));
  }
  static vs16 andS16(vs16 mask, vs16 v) { return vandq_s16(mask, v); }
  static vs16 andNotS16(vs16 mask, vs16 v) { return vbicq_s16(v, mask); }
  template <int Imm>
  static vs16 shrLogU16(vs16 v) {
    return vreinterpretq_s16_u16(vshrq_n_u16(vreinterpretq_u16_s16(v), Imm));
  }
  /// Widening multiply, then a wrapping widening multiply-add: the same
  /// s32 sums as PMADDWD, corner case included.
  static vs32x2 maddPairS16(vs16 a, vs16 b, std::int16_t wa,
                            std::int16_t wb) {
    const int16x4_t va = vdup_n_s16(wa), vb = vdup_n_s16(wb);
    return {vmlal_s16(vmull_s16(vget_low_s16(a), va), vget_low_s16(b), vb),
            vmlal_s16(vmull_s16(vget_high_s16(a), va), vget_high_s16(b), vb)};
  }

  // ---- s32 -----------------------------------------------------------------
  static vs32 addS32(vs32 a, vs32 b) { return vaddq_s32(a, b); }
  template <int Imm>
  static vs32 shrS32(vs32 v) { return vshrq_n_s32(v, Imm); }

  // ---- u8 ------------------------------------------------------------------
  static vu8 loadU8(const std::uint8_t* p) { return vld1q_u8(p); }
  static void storeU8(std::uint8_t* p, vu8 v) { vst1q_u8(p, v); }
  static vu8 loadU8Partial(const std::uint8_t* p, int n) {
    std::uint8_t buf[16] = {};
    __builtin_memcpy(buf, p, static_cast<std::size_t>(n));
    return vld1q_u8(buf);
  }
  static vu8 setU8(std::uint8_t v) { return vdupq_n_u8(v); }
  static vu8 addSatU8(vu8 a, vu8 b) { return vqaddq_u8(a, b); }
  static vu8 subSatU8(vu8 a, vu8 b) { return vqsubq_u8(a, b); }
  static vu8 minU8(vu8 a, vu8 b) { return vminq_u8(a, b); }
  static vu8 maxU8(vu8 a, vu8 b) { return vmaxq_u8(a, b); }
  static vu8 cmpGtU8(vu8 a, vu8 b) { return vcgtq_u8(a, b); }
  static vu8 andU8(vu8 a, vu8 b) { return vandq_u8(a, b); }
  /// ~mask & v.
  static vu8 andNotU8(vu8 mask, vu8 v) { return vbicq_u8(v, mask); }
  static vu8 orU8(vu8 a, vu8 b) { return vorrq_u8(a, b); }
  static vu8 xorU8(vu8 a, vu8 b) { return veorq_u8(a, b); }
  static vs16x2 widenU8(vu8 v) {
    return {vreinterpretq_s16_u16(vmovl_u8(vget_low_u8(v))),
            vreinterpretq_s16_u16(vmovl_u8(vget_high_u8(v)))};
  }
  static vu8x3 deinterleave3U8(const std::uint8_t* p) {
    const uint8x16x3_t v = vld3q_u8(p);
    return {v.val[0], v.val[1], v.val[2]};
  }

  // ---- packs (NEON's narrows are already in element order) -----------------
  static vs16 packS32toS16(vs32 a, vs32 b) {
    return vcombine_s16(vqmovn_s32(a), vqmovn_s32(b));
  }
  static vu8 packS16toU8(vs16 a, vs16 b) {
    return vcombine_u8(vqmovun_s16(a), vqmovun_s16(b));
  }
  static vu8 packS32x4toU8(vs32 a, vs32 b, vs32 c, vs32 d) {
    return packS16toU8(packS32toS16(a, b), packS32toS16(c, d));
  }

  // ---- reductions ----------------------------------------------------------
  /// The pairwise-widening ladder u8 -> u16 -> u32 -> u64.
  static std::uint64_t sadSumU8(vu8 v) {
    const uint64x2_t s = vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(v)));
    return vgetq_lane_u64(s, 0) + vgetq_lane_u64(s, 1);
  }

 private:
  static uint32x4_t u32(vf32 v) { return vreinterpretq_u32_f32(v); }
};

}  // namespace simdcv::simd
