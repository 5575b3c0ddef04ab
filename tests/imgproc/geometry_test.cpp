// Affine warping.
#include "imgproc/geometry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace simdcv::imgproc {
namespace {

Mat iota(int rows, int cols) {
  Mat m(rows, cols, U8C1);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>((r * cols + c) & 0xff);
  return m;
}

TEST(Affine, IdentityWarpIsExactCopy) {
  const Mat src = iota(16, 20);
  Mat dst;
  warpAffine(src, dst, affineIdentity(), {20, 16});
  EXPECT_EQ(countMismatches(src, dst), 0u);
}

TEST(Affine, PureTranslation) {
  const Mat src = iota(8, 8);
  // dst(x,y) samples src(x-2, y-3): shift content right/down by (2,3).
  AffineMat m = affineIdentity();
  m[2] = -2;
  m[5] = -3;
  Mat dst;
  warpAffine(src, dst, m, {8, 8}, BorderType::Constant, 0.0);
  for (int r = 3; r < 8; ++r)
    for (int c = 2; c < 8; ++c)
      EXPECT_EQ(dst.at<std::uint8_t>(r, c), src.at<std::uint8_t>(r - 3, c - 2));
  EXPECT_EQ(dst.at<std::uint8_t>(0, 0), 0);  // constant fill
}

TEST(Affine, InvertRoundTrip) {
  const AffineMat m = {0.8, -0.3, 5.0, 0.2, 1.1, -7.0};
  const AffineMat inv = invertAffine(m);
  // m o inv == identity (checked at a few points).
  for (double x : {0.0, 3.0, -2.5}) {
    for (double y : {0.0, 1.0, 4.5}) {
      const double ix = inv[0] * x + inv[1] * y + inv[2];
      const double iy = inv[3] * x + inv[4] * y + inv[5];
      EXPECT_NEAR(m[0] * ix + m[1] * iy + m[2], x, 1e-9);
      EXPECT_NEAR(m[3] * ix + m[4] * iy + m[5], y, 1e-9);
    }
  }
  EXPECT_THROW(invertAffine({1, 2, 0, 2, 4, 0}), Error);  // singular
}

TEST(Affine, Rotation360RestoresSmoothImage) {
  // Four 90-degree bilinear rotations of a smooth image about its center
  // approximately restore it (interior only; borders decay).
  Mat src(33, 33, F32C1);
  for (int r = 0; r < 33; ++r)
    for (int c = 0; c < 33; ++c)
      src.at<float>(r, c) = static_cast<float>(r + 2 * c);
  const AffineMat fwd = getRotationMatrix2D(16.0, 16.0, 90.0, 1.0);
  const AffineMat inv = invertAffine(fwd);
  Mat x = src.clone();
  for (int i = 0; i < 4; ++i) {
    Mat next;
    warpAffine(x, next, inv, {33, 33}, BorderType::Replicate);
    x = std::move(next);
  }
  for (int r = 8; r < 25; ++r)
    for (int c = 8; c < 25; ++c)
      EXPECT_NEAR(x.at<float>(r, c), src.at<float>(r, c), 0.25) << r << "," << c;
}

TEST(Affine, ScaleHalfMatchesDownsample) {
  // Scaling by 2 in the map (dst->src doubling) shrinks content; sampling
  // the center of a constant region stays exact.
  Mat src = full(16, 16, U8C1, 200);
  AffineMat m = {2, 0, 0, 0, 2, 0};
  Mat dst;
  warpAffine(src, dst, m, {8, 8}, BorderType::Replicate);
  EXPECT_EQ(countMismatches(dst, full(8, 8, U8C1, 200)), 0u);
}

TEST(Affine, Validation) {
  Mat src = iota(4, 4), dst;
  EXPECT_THROW(warpAffine(src, dst, affineIdentity(), {0, 4}), Error);
  Mat c3(4, 4, U8C3);
  EXPECT_THROW(warpAffine(c3, dst, affineIdentity(), {4, 4}), Error);
}

}  // namespace
}  // namespace simdcv::imgproc
