// Color space conversion — the OpenCV routine the paper's related work
// reports NEON speedups for (color conversion: 9.5x on Tegra 3 in [23]).
//
// BGR->Gray uses the OpenCV fixed-point BT.601 weights (B:1868, G:9617,
// R:4899, 14 fractional bits) so every path is bit-exact with cv::cvtColor.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

enum class ColorCode : std::uint8_t {
  BGR2GRAY,
  RGB2GRAY,
  GRAY2BGR,
  BGR2RGB,  ///< also RGB2BGR (same swap)
  BGRA2BGR,
  BGR2BGRA,
};

/// Convert between color representations (U8 images).
void cvtColor(const Mat& src, Mat& dst, ColorCode code,
              KernelPath path = KernelPath::Default);

// Flat-range gray kernels per path (row pointers, n pixels); the x86 arms
// are fx_sse2/fx_avx2/fx_avx512::bgr2grayU8 (fixedpoint.hpp).
namespace autovec {
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder);
}
namespace novec {
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder);
}
namespace neon {
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder);
}

}  // namespace simdcv::imgproc
