// Gaussian pyramid downsampling (pyrDown), composed from the separable
// filter engine with OpenCV's 5-tap pyramid kernel [1 4 6 4 1] / 16.
#pragma once

#include "core/mat.hpp"
#include "imgproc/border.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

/// Blur with the 5-tap pyramid kernel and downsample by 2 (ceil halving,
/// like cv::pyrDown). U8C1 / F32C1.
void pyrDown(const Mat& src, Mat& dst, KernelPath path = KernelPath::Default);

}  // namespace simdcv::imgproc
