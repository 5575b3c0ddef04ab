// Element type conversion with saturation — the paper's benchmark 1 surface.
//
// convertTo() is the public Mat-level API (mirrors cv::Mat::convertTo).
// The flat-array kernels underneath are exposed too because the benchmark
// harness times them directly, one per KernelPath.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::core {

/// Convert `src` to depth `ddepth`, element-wise:
///   dst = saturate_cast<ddepth>(src * alpha + beta)
/// Channel count is preserved. `dst` is reallocated as needed.
/// HAND paths (Sse2/Neon) are used when available for the (src,dst) depth
/// pair and alpha == 1, beta == 0; otherwise the scalar path runs.
void convertTo(const Mat& src, Mat& dst, Depth ddepth, double alpha = 1.0,
               double beta = 0.0, KernelPath path = KernelPath::Default);

/// The paper's float -> short saturating conversion over a flat range.
/// All paths round half to even and saturate to [-32768, 32767].
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n,
               KernelPath path = KernelPath::Default);

/// The NEON kernel exactly as printed in the paper (ARMv7 vcvtq_s32_f32,
/// which truncates toward zero instead of rounding). Kept for the
/// instruction-count ablation; NOT bit-exact with the scalar reference for
/// non-integral inputs.
void cvt32f16sNeonPaper(const float* src, std::int16_t* dst, std::size_t n);

/// Returns true if a HAND kernel exists for this depth pair on `path`
/// (identity scale).
bool hasHandKernel(Depth sdepth, Depth ddepth, KernelPath path);

// -- per-path scalar entry points (exposed for the ablation benches) -------
namespace autovec {
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n);
void cvtRange(Depth sd, Depth dd, const void* src, void* dst, std::size_t n);
void cvtRangeScaled(Depth sd, Depth dd, const void* src, void* dst,
                    std::size_t n, double alpha, double beta);
}  // namespace autovec
namespace novec {
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n);
void cvtRange(Depth sd, Depth dd, const void* src, void* dst, std::size_t n);
void cvtRangeScaled(Depth sd, Depth dd, const void* src, void* dst,
                    std::size_t n, double alpha, double beta);
}  // namespace novec

// -- per-path SIMD entry points ---------------------------------------------
namespace sse2 {
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n);
void cvt32f8u(const float* src, std::uint8_t* dst, std::size_t n);
void cvt8u32f(const std::uint8_t* src, float* dst, std::size_t n);
void cvt16s32f(const std::int16_t* src, float* dst, std::size_t n);
void cvt8u16s(const std::uint8_t* src, std::int16_t* dst, std::size_t n);
void cvt16s8u(const std::int16_t* src, std::uint8_t* dst, std::size_t n);
}  // namespace sse2
namespace avx2 {
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n);
void cvt32f8u(const float* src, std::uint8_t* dst, std::size_t n);
void cvt8u32f(const std::uint8_t* src, float* dst, std::size_t n);
void cvt16s32f(const std::int16_t* src, float* dst, std::size_t n);
void cvt8u16s(const std::uint8_t* src, std::int16_t* dst, std::size_t n);
void cvt16s8u(const std::int16_t* src, std::uint8_t* dst, std::size_t n);
}  // namespace avx2
namespace avx512 {
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n);
void cvt32f8u(const float* src, std::uint8_t* dst, std::size_t n);
void cvt8u32f(const std::uint8_t* src, float* dst, std::size_t n);
void cvt16s32f(const std::int16_t* src, float* dst, std::size_t n);
void cvt8u16s(const std::uint8_t* src, std::int16_t* dst, std::size_t n);
void cvt16s8u(const std::int16_t* src, std::uint8_t* dst, std::size_t n);
}  // namespace avx512
namespace neon {
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n);
void cvt32f16sPaper(const float* src, std::int16_t* dst, std::size_t n);
void cvt32f8u(const float* src, std::uint8_t* dst, std::size_t n);
void cvt8u32f(const std::uint8_t* src, float* dst, std::size_t n);
void cvt16s32f(const std::int16_t* src, float* dst, std::size_t n);
void cvt8u16s(const std::uint8_t* src, std::int16_t* dst, std::size_t n);
void cvt16s8u(const std::int16_t* src, std::uint8_t* dst, std::size_t n);
}  // namespace neon

}  // namespace simdcv::core
