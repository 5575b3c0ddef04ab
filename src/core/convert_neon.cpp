// NEON conversion kernels (the paper's ARM "HAND" arm). The six
// identity-scale pairs are the width-generic bodies from convert_kernels.inl
// instantiated at VecTraits<Neon>, whose saturating convert is the
// round-to-nearest vcvtnq_s32_f32, so they are bit-exact with the scalar
// reference. The f64 scaled bodies are not instantiated here: NEON's traits
// have no f64 lanes and its scaled converts run the scalar arm.
//
// cvt32f16sPaper is the paper's Section III-A listing itself, with its
// truncating vcvtq_s32_f32, kept for the ablation. It compiles against the
// genuine <arm_neon.h> on ARM and against simd/neon_emu.hpp elsewhere.
#include <limits>

#include "core/convert.hpp"
#include "core/saturate.hpp"
#include "simd/vec_neon.hpp"

#include "core/convert_kernels.inl"

namespace simdcv::core::neon {

using B = simd::backend::Neon;

void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n) {
  vker::cvt32f16s<B>(src, dst, n);
}
void cvt32f8u(const float* src, std::uint8_t* dst, std::size_t n) {
  vker::cvt32f8u<B>(src, dst, n);
}
void cvt8u32f(const std::uint8_t* src, float* dst, std::size_t n) {
  vker::cvt8u32f<B>(src, dst, n);
}
void cvt16s32f(const std::int16_t* src, float* dst, std::size_t n) {
  vker::cvt16s32f<B>(src, dst, n);
}
void cvt8u16s(const std::uint8_t* src, std::int16_t* dst, std::size_t n) {
  vker::cvt8u16s<B>(src, dst, n);
}
void cvt16s8u(const std::int16_t* src, std::uint8_t* dst, std::size_t n) {
  vker::cvt16s8u<B>(src, dst, n);
}

void cvt32f16sPaper(const float* src, std::int16_t* dst, std::size_t n) {
  // Verbatim structure from the paper (truncating vcvtq_s32_f32).
  std::size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    float32x4_t src128 = vld1q_f32(src + x);
    int32x4_t src_int128 = vcvtq_s32_f32(src128);
    int16x4_t src0_int64 = vqmovn_s32(src_int128);

    src128 = vld1q_f32(src + x + 4);
    src_int128 = vcvtq_s32_f32(src128);
    int16x4_t src1_int64 = vqmovn_s32(src_int128);

    int16x8_t res_int128 = vcombine_s16(src0_int64, src1_int64);
    vst1q_s16(dst + x, res_int128);
  }
  for (; x < n; ++x) {
    // Tail matches the vector body: truncate toward zero, saturate, NaN -> 0.
    const float v = src[x];
    std::int32_t i;
    if (v != v) {
      i = 0;
    } else if (v >= 2147483648.0f) {
      i = 2147483647;
    } else if (v <= -2147483648.0f) {
      i = std::numeric_limits<std::int32_t>::min();
    } else {
      i = static_cast<std::int32_t>(v);
    }
    dst[x] = saturate_cast<std::int16_t>(i);
  }
}

}  // namespace simdcv::core::neon
