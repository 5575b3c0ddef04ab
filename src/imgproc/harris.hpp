// Harris corner response — gradient autocorrelation:
// R = det(M) - k * trace(M)^2 over a smoothed structure tensor
// M = sum_w [Ix^2 IxIy; IxIy Iy^2]. Composed entirely from the library's
// Sobel + box-filter substrates.
#pragma once

#include <vector>

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

struct KeyPoint {
  int x = 0;
  int y = 0;
  int score = 0;  ///< Harris response, truncated to int
};

/// Dense Harris response map (F32C1) of a U8C1 image.
/// blockSize: structure-tensor window; apertureSize: Sobel kernel; k: the
/// Harris constant (typically 0.04-0.06).
void cornerHarris(const Mat& src, Mat& response, int blockSize = 3,
                  int apertureSize = 3, double k = 0.04,
                  KernelPath path = KernelPath::Default);

/// Corners = local maxima of the Harris response above
/// `qualityLevel * max(response)`, greedily spaced at least `minDistance`
/// apart, strongest first (goodFeaturesToTrack-style).
std::vector<KeyPoint> harrisCorners(const Mat& src, int maxCorners = 100,
                                    double qualityLevel = 0.01,
                                    double minDistance = 5.0,
                                    KernelPath path = KernelPath::Default);

}  // namespace simdcv::imgproc
