// ARM-reference corners of the NEON intrinsics the library uses, at the
// intrinsic level: the conversion rails and rounding, the saturating narrows,
// logical vs arithmetic shifts, bit select, the vld3 channel order, the
// pairwise-widening ladder and the vmlal wrap; then typed algebraic laws of
// the integer families, swept across the backend's integer lane types with
// randomized lanes and checked against a scalar model. The file names only
// intrinsics and reads lanes with memcpy, so on an ARM host it checks the
// emulation's model against the hardware.
#include "simd/neon_compat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <type_traits>

namespace {

constexpr std::int32_t kMin32 = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kMax32 = std::numeric_limits<std::int32_t>::max();

/// The lanes of `v` as an array of T (T's size picks the lane width).
template <typename T, typename V>
std::array<T, sizeof(V) / sizeof(T)> lanes(V v) {
  std::array<T, sizeof(V) / sizeof(T)> out{};
  std::memcpy(out.data(), &v, sizeof(v));
  return out;
}

/// A vector V holding `in` (for shapes the library never loads directly).
template <typename V, typename T, std::size_t N>
V make(const std::array<T, N>& in) {
  static_assert(sizeof(V) == sizeof(in));
  V v;
  std::memcpy(&v, in.data(), sizeof(v));
  return v;
}

float32x4_t f32(float a, float b, float c, float d) {
  const float in[4] = {a, b, c, d};
  return vld1q_f32(in);
}

TEST(NeonTypes, SizesMatchArchitecture) {
  EXPECT_EQ(sizeof(int16x4_t), 8u);
  EXPECT_EQ(sizeof(uint8x8_t), 8u);
  EXPECT_EQ(sizeof(uint32x2_t), 8u);
  EXPECT_EQ(sizeof(int16x8_t), 16u);
  EXPECT_EQ(sizeof(int32x4_t), 16u);
  EXPECT_EQ(sizeof(uint64x2_t), 16u);
  EXPECT_EQ(sizeof(float32x4_t), 16u);
  EXPECT_EQ(sizeof(uint8x16x3_t), 48u);
}

TEST(NeonLoadStore, RoundTripF32) {
  const float in[4] = {1.0f, -2.5f, 3.25f, 4e6f};
  float out[4] = {};
  vst1q_f32(out, vld1q_f32(in));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(in[i], out[i]);
}

TEST(NeonLoadStore, RoundTripAllQTypes) {
  const std::uint16_t in[8] = {0, 1, 65535, 32768, 4, 5, 6, 7};
  std::uint16_t out[8] = {};
  vst1q_u16(out, vld1q_u16(in));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(in[i], out[i]);
}

TEST(NeonLoadStore, UnalignedPointerWorks) {
  alignas(16) std::uint8_t buf[32] = {};
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<std::uint8_t>(i);
  const auto v = lanes<std::uint8_t>(vld1q_u8(buf + 3));  // misaligned
  EXPECT_EQ(v[0], 3);
  EXPECT_EQ(v[15], 18);
}

TEST(NeonDup, BroadcastsAllLanes) {
  for (const std::int16_t x : lanes<std::int16_t>(vdupq_n_s16(-1234)))
    EXPECT_EQ(x, -1234);
  for (const std::uint8_t x : lanes<std::uint8_t>(vdupq_n_u8(200)))
    EXPECT_EQ(x, 200);
  for (const std::int16_t x : lanes<std::int16_t>(vdup_n_s16(-7)))
    EXPECT_EQ(x, -7);
  for (const std::uint32_t x : lanes<std::uint32_t>(vdup_n_u32(0xdeadbeefu)))
    EXPECT_EQ(x, 0xdeadbeefu);
}

TEST(NeonCombine, CombineAndSplit) {
  const std::int16_t lo[4] = {1, 2, 3, 4};
  const std::int16_t hi[4] = {5, 6, 7, 8};
  const int16x8_t q = vcombine_s16(vld1_s16(lo), vld1_s16(hi));
  std::int16_t out[8];
  vst1q_s16(out, q);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i + 1);
  const auto lo2 = lanes<std::int16_t>(vget_low_s16(q));
  const auto hi2 = lanes<std::int16_t>(vget_high_s16(q));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(lo2[i], lo[i]);
    EXPECT_EQ(hi2[i], hi[i]);
  }
}

TEST(NeonSemantics, CombineGetRoundTripAllWidths) {
  std::uint8_t b[16];
  for (int i = 0; i < 16; ++i) b[i] = static_cast<std::uint8_t>(i * 17);
  const uint8x16_t q8 = vld1q_u8(b);
  const auto back8 = lanes<std::uint8_t>(
      vcombine_u8(vget_low_u8(q8), vget_high_u8(q8)));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(back8[i], b[i]);
  const std::int16_t h[8] = {-32768, -1, 0, 1, 2, 3, 4, 32767};
  const int16x8_t q16 = vld1q_s16(h);
  const auto back16 = lanes<std::int16_t>(
      vcombine_s16(vget_low_s16(q16), vget_high_s16(q16)));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(back16[i], h[i]);
}

TEST(NeonReinterpret, PreservesBits) {
  const uint32x4_t u = vreinterpretq_u32_f32(vdupq_n_f32(1.0f));
  EXPECT_EQ(lanes<std::uint32_t>(u)[0], 0x3f800000u);
  EXPECT_EQ(lanes<float>(vreinterpretq_f32_u32(u))[3], 1.0f);
  // u16 <-> s16 keeps the bit pattern: 0x8000 is -32768.
  const uint16x8_t h = vreinterpretq_u16_s16(vdupq_n_s16(-32768));
  EXPECT_EQ(lanes<std::uint16_t>(h)[0], 0x8000);
  EXPECT_EQ(lanes<std::int16_t>(vreinterpretq_s16_u16(h))[7], -32768);
}

TEST(NeonInterleaved, Vld3RgbSplit) {
  // 16 RGB pixels: R=i, G=2i, B=255-i.
  std::uint8_t rgb[48];
  for (int i = 0; i < 16; ++i) {
    rgb[3 * i] = static_cast<std::uint8_t>(i);
    rgb[3 * i + 1] = static_cast<std::uint8_t>(2 * i);
    rgb[3 * i + 2] = static_cast<std::uint8_t>(255 - i);
  }
  const uint8x16x3_t v = vld3q_u8(rgb);
  const auto r = lanes<std::uint8_t>(v.val[0]);
  const auto g = lanes<std::uint8_t>(v.val[1]);
  const auto b = lanes<std::uint8_t>(v.val[2]);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(r[i], i);
    EXPECT_EQ(g[i], 2 * i);
    EXPECT_EQ(b[i], 255 - i);
  }
}

TEST(NeonLogic, BitwiseOps) {
  const uint8x16_t a = vdupq_n_u8(0b1100);
  const uint8x16_t b = vdupq_n_u8(0b1010);
  EXPECT_EQ(lanes<std::uint8_t>(vandq_u8(a, b))[0], 0b1000);
  EXPECT_EQ(lanes<std::uint8_t>(vorrq_u8(a, b))[0], 0b1110);
  EXPECT_EQ(lanes<std::uint8_t>(veorq_u8(a, b))[0], 0b0110);
  EXPECT_EQ(lanes<std::uint8_t>(vbicq_u8(a, b))[0], 0b0100);  // a & ~b
}

TEST(NeonSemantics, MaskAlgebraDuals) {
  // vbic(a, b) == vand(a, not b), with not b written as b ^ all-ones.
  const uint8x16_t a = vdupq_n_u8(0xC3);
  const uint8x16_t b = vdupq_n_u8(0x5A);
  const uint8x16_t notB = veorq_u8(b, vdupq_n_u8(0xFF));
  EXPECT_EQ(lanes<std::uint8_t>(vbicq_u8(a, b)),
            lanes<std::uint8_t>(vandq_u8(a, notB)));
  // bsl with an all-ones mask picks a, all-zeros picks b.
  const float32x4_t fa = vdupq_n_f32(1.5f), fb = vdupq_n_f32(-2.0f);
  EXPECT_EQ(lanes<float>(vbslq_f32(vdupq_n_u32(0xFFFFFFFFu), fa, fb))[0], 1.5f);
  EXPECT_EQ(lanes<float>(vbslq_f32(vdupq_n_u32(0u), fa, fb))[0], -2.0f);
}

TEST(NeonBsl, SelectsPerBit) {
  const uint32x4_t mask = make<uint32x4_t>(std::array<std::uint32_t, 4>{
      0x0000ffffu, 0xffffffffu, 0u, 0xf0f0f0f0u});
  const float32x4_t a = vreinterpretq_f32_u32(
      make<uint32x4_t>(std::array<std::uint32_t, 4>{
          0xAAAAAAAAu, 0xAAAAAAAAu, 0xAAAAAAAAu, 0xAAAAAAAAu}));
  const float32x4_t b = vreinterpretq_f32_u32(
      make<uint32x4_t>(std::array<std::uint32_t, 4>{
          0x55555555u, 0x55555555u, 0x55555555u, 0x55555555u}));
  const auto r = lanes<std::uint32_t>(vbslq_f32(mask, a, b));
  EXPECT_EQ(r[0], 0x5555AAAAu);
  EXPECT_EQ(r[1], 0xAAAAAAAAu);
  EXPECT_EQ(r[2], 0x55555555u);
  EXPECT_EQ(r[3], 0xA5A5A5A5u);
}

TEST(NeonBsl, FloatSelectionWithCompareMask) {
  // max(v, 0) via compare + select: the idiom the threshold kernel uses.
  const float32x4_t v = f32(-1.0f, 2.0f, -3.0f, 4.0f);
  const uint32x4_t gt = vcgtq_f32(v, vdupq_n_f32(0.0f));
  const auto r = lanes<float>(vbslq_f32(gt, v, vdupq_n_f32(0.0f)));
  EXPECT_EQ(r[0], 0.0f);
  EXPECT_EQ(r[1], 2.0f);
  EXPECT_EQ(r[2], 0.0f);
  EXPECT_EQ(r[3], 4.0f);
}

TEST(NeonCmp, FloatCompareAndNaN) {
  // Every ordered comparison with NaN is false: minF32/maxF32 rely on it to
  // return the second operand, as x86's minps/maxps do.
  const float nan = std::nanf("");
  const float32x4_t a = f32(1.0f, nan, 0.5f, 1.0f);
  const float32x4_t b = f32(0.5f, 1.0f, nan, 1.0f);
  const auto gt = lanes<std::uint32_t>(vcgtq_f32(a, b));
  const auto lt = lanes<std::uint32_t>(vcltq_f32(a, b));
  const std::array<std::uint32_t, 4> wantGt = {0xffffffffu, 0u, 0u, 0u};
  const std::array<std::uint32_t, 4> wantLt = {0u, 0u, 0u, 0u};
  EXPECT_EQ(gt, wantGt);
  EXPECT_EQ(lt, wantLt);
}

TEST(NeonCmp, UnsignedCompareMasksAreAllOnesOrZero) {
  const uint8x16_t a = vdupq_n_u8(200);
  const uint8x16_t b = vdupq_n_u8(100);
  for (const std::uint8_t x : lanes<std::uint8_t>(vcgtq_u8(a, b)))
    EXPECT_EQ(x, 0xff);
  for (const std::uint8_t x : lanes<std::uint8_t>(vcgtq_u8(b, a)))
    EXPECT_EQ(x, 0x00);
  // 0xC000 vs 0x4000 signed would flip: unsigned semantics matter.
  const uint16x8_t ua = vdupq_n_u16(0xC000);
  const uint16x8_t ub = vdupq_n_u16(0x4000);
  EXPECT_EQ(lanes<std::uint16_t>(vcgtq_u16(ua, ub))[0], 0xffff);
  EXPECT_EQ(lanes<std::uint16_t>(vcgtq_s16(vreinterpretq_s16_u16(ua),
                                           vreinterpretq_s16_u16(ub)))[0],
            0x0000);  // -16384 > 16384 is false
}

TEST(NeonArith, WrappingAddSub) {
  const uint8x16_t a = vdupq_n_u8(250);
  const uint8x16_t b = vdupq_n_u8(10);
  EXPECT_EQ(lanes<std::uint8_t>(vaddq_u8(a, b))[0], 4);   // wraps mod 256
  EXPECT_EQ(lanes<std::uint8_t>(vsubq_u8(b, a))[0], 16);  // wraps
  const int16x8_t c = vdupq_n_s16(32767);
  EXPECT_EQ(lanes<std::int16_t>(vaddq_s16(c, vdupq_n_s16(1)))[3], -32768);
}

TEST(NeonArith, SaturatingAdd) {
  EXPECT_EQ(lanes<std::uint8_t>(vqaddq_u8(vdupq_n_u8(250), vdupq_n_u8(10)))[0],
            255);
  EXPECT_EQ(lanes<std::int16_t>(
                vqaddq_s16(vdupq_n_s16(32000), vdupq_n_s16(1000)))[7],
            32767);
  EXPECT_EQ(lanes<std::int32_t>(
                vqaddq_s32(vdupq_n_s32(2147483000), vdupq_n_s32(1000)))[0],
            2147483647);
  // Non-saturating case passes through exactly.
  EXPECT_EQ(lanes<std::int16_t>(
                vqaddq_s16(vdupq_n_s16(100), vdupq_n_s16(-300)))[0],
            -200);
}

TEST(NeonArith, SaturatingSub) {
  EXPECT_EQ(lanes<std::uint8_t>(vqsubq_u8(vdupq_n_u8(10), vdupq_n_u8(50)))[0],
            0);
  EXPECT_EQ(lanes<std::int16_t>(
                vqsubq_s16(vdupq_n_s16(-32000), vdupq_n_s16(1000)))[0],
            -32768);
  EXPECT_EQ(lanes<std::uint16_t>(
                vqsubq_u16(vdupq_n_u16(500), vdupq_n_u16(100)))[0],
            400);
}

TEST(NeonArith, PropertySweepSaturatingMatchesWideMath) {
  // vqaddq_s16 == clamp(a+b) over a deterministic sweep of lane values.
  for (int a = -40000; a <= 40000; a += 7777) {
    for (int b = -40000; b <= 40000; b += 9999) {
      const std::int16_t sa = static_cast<std::int16_t>(a);
      const std::int16_t sb = static_cast<std::int16_t>(b);
      const int expect =
          std::min(32767, std::max(-32768, static_cast<int>(sa) + sb));
      const int16x8_t r = vqaddq_s16(vdupq_n_s16(sa), vdupq_n_s16(sb));
      ASSERT_EQ(lanes<std::int16_t>(r)[5], expect) << sa << "+" << sb;
    }
  }
}

TEST(NeonArith, MultiplyAndAccumulate) {
  const float32x4_t a = vdupq_n_f32(2.0f);
  const float32x4_t b = vdupq_n_f32(3.0f);
  EXPECT_EQ(lanes<float>(vmulq_f32(a, b))[0], 6.0f);
  const int16x8_t i = vdupq_n_s16(300);
  EXPECT_EQ(lanes<std::int16_t>(vmulq_s16(i, vdupq_n_s16(100)))[0],
            static_cast<std::int16_t>(30000));
  // Integer multiply wraps.
  EXPECT_EQ(lanes<std::int16_t>(vmulq_s16(i, vdupq_n_s16(300)))[0],
            static_cast<std::int16_t>(90000 & 0xffff));
}

TEST(NeonArith, MovlWidens) {
  const std::uint8_t uv[8] = {0, 1, 128, 255, 4, 5, 6, 7};
  const auto w = lanes<std::uint16_t>(vmovl_u8(vld1_u8(uv)));
  EXPECT_EQ(w[2], 128);
  EXPECT_EQ(w[3], 255);
  const std::int16_t sv[4] = {-32768, -1, 0, 32767};
  const auto ws = lanes<std::int32_t>(vmovl_s16(vld1_s16(sv)));
  EXPECT_EQ(ws[0], -32768);
  EXPECT_EQ(ws[3], 32767);
}

TEST(NeonArith, MinMax) {
  const std::uint8_t av[16] = {0, 255, 10, 20, 5, 5, 200, 100,
                               1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint8_t bv[16] = {255, 0, 20, 10, 5, 6, 100, 200,
                               8, 7, 6, 5, 4, 3, 2, 1};
  const uint8x16_t a = vld1q_u8(av), b = vld1q_u8(bv);
  EXPECT_EQ(lanes<std::uint8_t>(vminq_u8(a, b))[0], 0);
  EXPECT_EQ(lanes<std::uint8_t>(vmaxq_u8(a, b))[0], 255);
  EXPECT_EQ(lanes<std::uint8_t>(vminq_u8(a, b))[6], 100);
}

TEST(NeonArith, WideningMultiply) {
  const std::int16_t av[4] = {300, -300, 32767, -32768};
  const std::int16_t bv[4] = {300, 300, 32767, -32768};
  const int16x4_t a = vld1_s16(av), b = vld1_s16(bv);
  const auto w = lanes<std::int32_t>(vmull_s16(a, b));
  EXPECT_EQ(w[0], 90000);
  EXPECT_EQ(w[1], -90000);
  EXPECT_EQ(w[2], 32767 * 32767);
  EXPECT_EQ(w[3], 32768 * 32768);
  // vmlal accumulates modulo 2^32: -32768*-32768 twice is 2^31, which wraps
  // to INT_MIN (the PMADDWD corner maddPairS16 reproduces).
  const auto acc = lanes<std::int32_t>(vmlal_s16(vmull_s16(a, b), a, b));
  EXPECT_EQ(acc[0], 180000);
  EXPECT_EQ(acc[3], kMin32);
}

TEST(NeonArith, PairwiseWideningLadder) {
  std::uint8_t buf[16];
  for (auto& v : buf) v = 255;
  const uint16x8_t l16 = vpaddlq_u8(vld1q_u8(buf));
  for (const std::uint16_t x : lanes<std::uint16_t>(l16)) EXPECT_EQ(x, 510);
  const uint32x4_t l32 = vpaddlq_u16(l16);
  for (const std::uint32_t x : lanes<std::uint32_t>(l32)) EXPECT_EQ(x, 1020u);
  const uint64x2_t l64 = vpaddlq_u32(l32);
  EXPECT_EQ(vgetq_lane_u64(l64, 0), 2040u);
  EXPECT_EQ(vgetq_lane_u64(l64, 1), 2040u);
}

TEST(NeonShift, RightImmediate) {
  // Unsigned lanes shift logically, also through the top bit; signed lanes
  // shift arithmetically.
  const auto u = lanes<std::uint16_t>(vshrq_n_u16(
      make<uint16x8_t>(std::array<std::uint16_t, 8>{
          0x8000, 0xffff, 0x8001, 1, 0, 0x7fff, 0xff00, 0x1234}),
      15));
  const std::array<std::uint16_t, 8> want15 = {1, 1, 1, 0, 0, 0, 1, 0};
  EXPECT_EQ(u, want15);
  EXPECT_EQ(lanes<std::uint16_t>(vshrq_n_u16(vdupq_n_u16(0xFFFF), 8))[0],
            0x00ff);
  const int32x4_t s =
      make<int32x4_t>(std::array<std::int32_t, 4>{-32, 32, -5, 5});
  const std::array<std::int32_t, 4> want4 = {-2, 2, -1, 0};
  EXPECT_EQ(lanes<std::int32_t>(vshrq_n_s32(s, 4)), want4);
}

TEST(NeonSemantics, RightShiftByFullWidth) {
  // vshr #bits: signed replicates the sign bit; unsigned gives zero.
  EXPECT_EQ(lanes<std::int32_t>(vshrq_n_s32(vdupq_n_s32(-5), 32))[0], -1);
  EXPECT_EQ(lanes<std::int32_t>(vshrq_n_s32(vdupq_n_s32(5), 32))[0], 0);
  EXPECT_EQ(lanes<std::uint16_t>(vshrq_n_u16(vdupq_n_u16(0xFFFF), 16))[0], 0);
  const int32x4_t s =
      make<int32x4_t>(std::array<std::int32_t, 4>{-32, 32, -5, 5});
  const std::array<std::int32_t, 4> want32 = {-1, 0, -1, 0};
  EXPECT_EQ(lanes<std::int32_t>(vshrq_n_s32(s, 32)), want32);
}

TEST(NeonNarrow, QmovnSaturates) {
  const int32x4_t v = make<int32x4_t>(
      std::array<std::int32_t, 4>{70000, -70000, 32767, -32769});
  const std::array<std::int16_t, 4> want = {32767, -32768, 32767, -32768};
  EXPECT_EQ(lanes<std::int16_t>(vqmovn_s32(v)), want);
  const int32x4_t rails = make<int32x4_t>(
      std::array<std::int32_t, 4>{kMax32, kMin32, 1234, -1234});
  const std::array<std::int16_t, 4> wantRails = {32767, -32768, 1234, -1234};
  EXPECT_EQ(lanes<std::int16_t>(vqmovn_s32(rails)), wantRails);
}

TEST(NeonNarrow, QmovunClampsAtZero) {
  const std::int16_t vals[8] = {-5, 0, 255, 256, 300, 32767, -32768, 100};
  const std::array<std::uint8_t, 8> want = {0, 0, 255, 255, 255, 255, 0, 100};
  EXPECT_EQ(lanes<std::uint8_t>(vqmovun_s16(vld1q_s16(vals))), want);
}

TEST(NeonCvt, FloatToIntTruncatesTowardZero) {
  const std::array<std::int32_t, 4> want = {1, -1, 0, 0};
  EXPECT_EQ(lanes<std::int32_t>(vcvtq_s32_f32(f32(1.9f, -1.9f, 0.5f, -0.5f))),
            want);
}

TEST(NeonCvt, FloatToIntSaturatesAndZerosNaN) {
  // 2147483520 is the largest float below 2^31; 2^31 itself saturates.
  const float32x4_t v = f32(1e20f, -1e20f, std::nanf(""), 2147483520.0f);
  const std::array<std::int32_t, 4> want = {kMax32, kMin32, 0, 2147483520};
  EXPECT_EQ(lanes<std::int32_t>(vcvtq_s32_f32(v)), want);
  const std::array<std::int32_t, 4> wantEdge = {kMax32, kMin32, 0, 0};
  EXPECT_EQ(lanes<std::int32_t>(vcvtq_s32_f32(
                f32(2147483648.0f, -2147483648.0f, -std::nanf(""), -0.0f))),
            wantEdge);
}

TEST(NeonCvt, RoundToNearestEvenVariant) {
  const std::array<std::int32_t, 4> ties = {0, 2, 2, -2};
  EXPECT_EQ(lanes<std::int32_t>(vcvtnq_s32_f32(f32(0.5f, 1.5f, 2.5f, -2.5f))),
            ties);
  const std::array<std::int32_t, 4> near = {1, -1, -4, 3};
  EXPECT_EQ(
      lanes<std::int32_t>(vcvtnq_s32_f32(f32(0.51f, -0.51f, -3.5f, 3.49f))),
      near);
  // The same rails as the truncating form: NaN -> 0, ±overflow saturates.
  const std::array<std::int32_t, 4> rails = {kMax32, kMin32, 0, 2147483520};
  EXPECT_EQ(lanes<std::int32_t>(vcvtnq_s32_f32(
                f32(1e20f, -1e20f, std::nanf(""), 2147483520.0f))),
            rails);
}

TEST(NeonCvt, IntToFloatExact) {
  const int32x4_t v = make<int32x4_t>(
      std::array<std::int32_t, 4>{0, -1, 8388608, kMin32});
  const std::array<float, 4> want = {0.0f, -1.0f, 8388608.0f, -2147483648.0f};
  EXPECT_EQ(lanes<float>(vcvtq_f32_s32(v)), want);
}

// The paper's 8-pixel conversion at the intrinsic level: two converts, two
// saturating narrows and a combine (core::neon::cvt32f16s's composition).
TEST(NeonCvt, EightPixelConversionComposition) {
  const float src[8] = {1.4f, -1.4f, 40000.0f, -40000.0f,
                        0.5f, 1.5f, -0.5f, 100.0f};
  const int32x4_t i0 = vcvtnq_s32_f32(vld1q_f32(src));
  const int32x4_t i1 = vcvtnq_s32_f32(vld1q_f32(src + 4));
  std::int16_t out[8];
  vst1q_s16(out, vcombine_s16(vqmovn_s32(i0), vqmovn_s32(i1)));
  const std::int16_t want[8] = {1, -1, 32767, -32768, 0, 2, 0, 100};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], want[i]) << i;
}


// ---- typed laws of the integer families -------------------------------------

// Per-type binding of the intrinsics under test.
template <typename E>
struct Ops;

#define SIMDCV_TYPED_OPS(ET, VT, SUF, N)                         \
  template <>                                                    \
  struct Ops<ET> {                                               \
    using Vec = VT;                                              \
    static constexpr int lanes = N;                              \
    static Vec load(const ET* p) { return vld1q_##SUF(p); }      \
    static void store(ET* p, Vec v) { vst1q_##SUF(p, v); }       \
    static Vec add(Vec a, Vec b) { return vaddq_##SUF(a, b); }   \
    static Vec sub(Vec a, Vec b) { return vsubq_##SUF(a, b); }   \
    static Vec qadd(Vec a, Vec b) { return vqaddq_##SUF(a, b); } \
    static Vec qsub(Vec a, Vec b) { return vqsubq_##SUF(a, b); } \
    static Vec vmin(Vec a, Vec b) { return vminq_##SUF(a, b); }  \
    static Vec vmax(Vec a, Vec b) { return vmaxq_##SUF(a, b); }  \
    static auto cgt(Vec a, Vec b) { return vcgtq_##SUF(a, b); }  \
    static auto ceq(Vec a, Vec b) { return vceqq_##SUF(a, b); }  \
    static Vec dup(ET v) { return vdupq_n_##SUF(v); }            \
  };

SIMDCV_TYPED_OPS(std::uint8_t, uint8x16_t, u8, 16)
SIMDCV_TYPED_OPS(std::int16_t, int16x8_t, s16, 8)
SIMDCV_TYPED_OPS(std::uint16_t, uint16x8_t, u16, 8)
SIMDCV_TYPED_OPS(std::int32_t, int32x4_t, s32, 4)
SIMDCV_TYPED_OPS(std::uint32_t, uint32x4_t, u32, 4)
#undef SIMDCV_TYPED_OPS

template <typename E>
class NeonLawsTest : public ::testing::Test {
 protected:
  static constexpr int N = Ops<E>::lanes;

  void SetUp() override { rng_.seed(0xC0FFEE ^ sizeof(E)); }

  // Random lanes, biased toward the rails where saturation laws bite.
  std::array<E, N> randomLanes() {
    std::array<E, N> a{};
    for (auto& v : a) {
      switch (rng_() % 5) {
        case 0: v = std::numeric_limits<E>::min(); break;
        case 1: v = std::numeric_limits<E>::max(); break;
        case 2: v = static_cast<E>(0); break;
        default: v = static_cast<E>(rng_()); break;
      }
    }
    return a;
  }

  std::mt19937 rng_;
};

// The integer lane types VecTraits<Neon> works in.
using LaneTypes = ::testing::Types<std::uint8_t, std::int16_t, std::uint16_t,
                                   std::int32_t, std::uint32_t>;
TYPED_TEST_SUITE(NeonLawsTest, LaneTypes);

TYPED_TEST(NeonLawsTest, LoadStoreRoundTrip) {
  using O = Ops<TypeParam>;
  for (int iter = 0; iter < 50; ++iter) {
    const auto in = this->randomLanes();
    std::array<TypeParam, O::lanes> out{};
    O::store(out.data(), O::load(in.data()));
    EXPECT_EQ(in, out);
  }
}

TYPED_TEST(NeonLawsTest, AddSubInverse) {
  using O = Ops<TypeParam>;
  for (int iter = 0; iter < 50; ++iter) {
    const auto a = this->randomLanes();
    const auto b = this->randomLanes();
    // (a + b) - b == a, even under modular wrap.
    std::array<TypeParam, O::lanes> out{};
    O::store(out.data(),
             O::sub(O::add(O::load(a.data()), O::load(b.data())),
                    O::load(b.data())));
    EXPECT_EQ(out, a);
  }
}

TYPED_TEST(NeonLawsTest, SaturatingAddMatchesClampModel) {
  using O = Ops<TypeParam>;
  using W = long long;
  for (int iter = 0; iter < 100; ++iter) {
    const auto a = this->randomLanes();
    const auto b = this->randomLanes();
    std::array<TypeParam, O::lanes> got{};
    O::store(got.data(), O::qadd(O::load(a.data()), O::load(b.data())));
    for (int i = 0; i < O::lanes; ++i) {
      const W s = static_cast<W>(a[static_cast<std::size_t>(i)]) +
                  static_cast<W>(b[static_cast<std::size_t>(i)]);
      const W lo = static_cast<W>(std::numeric_limits<TypeParam>::min());
      const W hi = static_cast<W>(std::numeric_limits<TypeParam>::max());
      EXPECT_EQ(static_cast<W>(got[static_cast<std::size_t>(i)]),
                std::clamp(s, lo, hi))
          << "lane " << i;
    }
  }
}

TYPED_TEST(NeonLawsTest, SaturatingSubMatchesClampModel) {
  using O = Ops<TypeParam>;
  using W = long long;
  for (int iter = 0; iter < 100; ++iter) {
    const auto a = this->randomLanes();
    const auto b = this->randomLanes();
    std::array<TypeParam, O::lanes> got{};
    O::store(got.data(), O::qsub(O::load(a.data()), O::load(b.data())));
    for (int i = 0; i < O::lanes; ++i) {
      const W s = static_cast<W>(a[static_cast<std::size_t>(i)]) -
                  static_cast<W>(b[static_cast<std::size_t>(i)]);
      const W lo = static_cast<W>(std::numeric_limits<TypeParam>::min());
      const W hi = static_cast<W>(std::numeric_limits<TypeParam>::max());
      EXPECT_EQ(static_cast<W>(got[static_cast<std::size_t>(i)]),
                std::clamp(s, lo, hi));
    }
  }
}

TYPED_TEST(NeonLawsTest, MinMaxLattice) {
  using O = Ops<TypeParam>;
  for (int iter = 0; iter < 50; ++iter) {
    const auto a = this->randomLanes();
    const auto b = this->randomLanes();
    std::array<TypeParam, O::lanes> lo{}, hi{};
    O::store(lo.data(), O::vmin(O::load(a.data()), O::load(b.data())));
    O::store(hi.data(), O::vmax(O::load(a.data()), O::load(b.data())));
    for (int i = 0; i < O::lanes; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      EXPECT_EQ(lo[ii], std::min(a[ii], b[ii]));
      EXPECT_EQ(hi[ii], std::max(a[ii], b[ii]));
      // min + max partitions the pair.
      EXPECT_TRUE((lo[ii] == a[ii] && hi[ii] == b[ii]) ||
                  (lo[ii] == b[ii] && hi[ii] == a[ii]));
    }
  }
}

TYPED_TEST(NeonLawsTest, CompareMasksAreAllOrNothingAndCorrect) {
  using O = Ops<TypeParam>;
  using U = std::make_unsigned_t<TypeParam>;
  for (int iter = 0; iter < 50; ++iter) {
    const auto a = this->randomLanes();
    const auto b = this->randomLanes();
    const auto gt = O::cgt(O::load(a.data()), O::load(b.data()));
    const auto eq = O::ceq(O::load(a.data()), O::load(b.data()));
    std::array<U, O::lanes> gtl{}, eql{};
    std::memcpy(gtl.data(), &gt, sizeof(gt));
    std::memcpy(eql.data(), &eq, sizeof(eq));
    for (int i = 0; i < O::lanes; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      EXPECT_EQ(gtl[ii], a[ii] > b[ii] ? static_cast<U>(~U{0}) : U{0});
      EXPECT_EQ(eql[ii], a[ii] == b[ii] ? static_cast<U>(~U{0}) : U{0});
      EXPECT_FALSE(gtl[ii] && eql[ii]);  // trichotomy: not both
    }
  }
}

TYPED_TEST(NeonLawsTest, DupMatchesBroadcast) {
  using O = Ops<TypeParam>;
  const auto a = this->randomLanes();
  std::array<TypeParam, O::lanes> got{};
  O::store(got.data(), O::dup(a[0]));
  for (int i = 0; i < O::lanes; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], a[0]);
}

}  // namespace
