// Affine warping with bilinear sampling.
#pragma once

#include <array>

#include "core/mat.hpp"
#include "imgproc/border.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

/// 2x3 affine matrix, row-major: dst(x,y) samples src at
///   (m[0]*x + m[1]*y + m[2], m[3]*x + m[4]*y + m[5]).
using AffineMat = std::array<double, 6>;

/// Identity / rotation-about-center helpers.
AffineMat affineIdentity();
/// cv::getRotationMatrix2D semantics: rotate `angleDeg` CCW about `center`,
/// scale by `scale`. The returned matrix maps DST coords to SRC coords when
/// passed to warpAffine with `inverseMap = true` semantics below.
AffineMat getRotationMatrix2D(double cx, double cy, double angleDeg,
                              double scale);
/// Invert an affine transform (throws if singular).
AffineMat invertAffine(const AffineMat& m);

/// Warp with bilinear sampling. `m` maps destination pixel coordinates to
/// source coordinates (the "inverse map" convention, which is what the inner
/// loop needs; use invertAffine on a forward map). U8C1 / F32C1.
/// Out-of-image samples use `border` (Constant -> `value`).
void warpAffine(const Mat& src, Mat& dst, const AffineMat& m, Size dsize,
                BorderType border = BorderType::Constant, double value = 0.0,
                KernelPath path = KernelPath::Default);

}  // namespace simdcv::imgproc
