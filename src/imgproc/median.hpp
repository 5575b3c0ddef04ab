// Median filtering — the highest-leverage NEON kernel in the paper's related
// work (23x for median blur on Tegra 3 [23]), because a 3x3 median is a
// branch-free min/max sorting network that maps perfectly onto vmin/vmax.
#pragma once

#include <cstdint>

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

/// Median blur of a U8C1 image. ksize must be 3 or 5. Border: replicate.
void medianBlur(const Mat& src, Mat& dst, int ksize = 3,
                KernelPath path = KernelPath::Default);

// Scalar 3x3 median rows per build: dst[x] for the interior columns
// x in [1, width - 1), from the replicate-clamped rows above, at and below.
// The x86 arms are morph_vker::median3Row (morph_kernels.inl).
namespace autovec {
void median3Row(const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, std::uint8_t* dst, int width);
}
namespace novec {
void median3Row(const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, std::uint8_t* dst, int width);
}

}  // namespace simdcv::imgproc
