// Image resizing (nearest neighbour and bilinear) — another routine the
// paper's related work reports large NEON gains for (7.6x on Tegra 3 [23]).
//
// Bilinear follows OpenCV's INTER_LINEAR sampling: source coordinate
// sx = (dx + 0.5) * scale - 0.5, with edge clamping. U8 uses 7-bit
// fixed-point weights so all paths are bit-exact; F32 interpolates in
// float.
#pragma once

#include <cstdint>

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

enum class Interp : std::uint8_t { Nearest, Linear };

/// Resize src to `dsize` (both dimensions > 0). U8 C1/C3 and F32 C1.
void resize(const Mat& src, Mat& dst, Size dsize,
            Interp interp = Interp::Linear,
            KernelPath path = KernelPath::Default);

// Scalar bilinear rows per build. hlinearU8 gathers one u8 row of `ch`
// channels into u16 results scaled by 128, hlinearF32 one f32 row; column x
// blends source columns lo[x] and hi[x] with weight w[x] on hi (7-bit fixed
// point / float). vblendF32 is the f32 vertical blend
// r0*(1 - wy) + r1*wy. The u16 blend's arms are the fixed-point family's
// vblendU16 (fixedpoint.hpp).
namespace autovec {
void hlinearU8(const std::uint8_t* s, std::uint16_t* out, int cols, int ch,
               const int* lo, const int* hi, const int* w);
void hlinearF32(const float* s, float* out, int cols, const int* lo,
                const int* hi, const float* w);
void vblendF32(const float* r0, const float* r1, float* dst, int n, float wy);
}  // namespace autovec
namespace novec {
void hlinearU8(const std::uint8_t* s, std::uint16_t* out, int cols, int ch,
               const int* lo, const int* hi, const int* w);
void hlinearF32(const float* s, float* out, int cols, const int* lo,
                const int* hi, const float* w);
void vblendF32(const float* r0, const float* r1, float* dst, int n, float wy);
}  // namespace novec

}  // namespace simdcv::imgproc
