// 256-bin histograms and Otsu's threshold.
#pragma once

#include <array>
#include <cstdint>

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

/// 256-bin histogram of a U8C1 image.
std::array<std::uint32_t, 256> calcHist(const Mat& src,
                                        KernelPath path = KernelPath::Default);

/// Otsu's threshold value for a U8C1 image (maximizes inter-class variance).
double otsuThreshold(const Mat& src, KernelPath path = KernelPath::Default);

}  // namespace simdcv::imgproc
