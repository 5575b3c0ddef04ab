// Sobel: analytic gradients on ramps, direction selectivity,
// path agreement.
#include <gtest/gtest.h>

#include <random>

#include "imgproc/filter.hpp"
#include "imgproc/kernels.hpp"

namespace simdcv::imgproc {
namespace {

Mat rampX(int rows, int cols, int step = 3) {
  Mat m(rows, cols, U8C1);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>((c * step) & 0xff);
  return m;
}

Mat rampY(int rows, int cols, int step = 3) {
  Mat m(rows, cols, U8C1);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>((r * step) & 0xff);
  return m;
}

TEST(Sobel, HorizontalRampGivesConstantGx) {
  // d/dx of a ramp with slope s, Sobel 3x3 un-normalized -> 8*s in the
  // interior (away from the wrap discontinuity).
  Mat src = rampX(16, 32, 3);
  Mat gx;
  Sobel(src, gx, Depth::S16, 1, 0, 3);
  for (int r = 4; r < 12; ++r)
    for (int c = 4; c < 28; ++c) {
      if ((c - 1) * 3 > 255 - 6) break;  // stay below the wrap point
      EXPECT_EQ(gx.at<std::int16_t>(r, c), 8 * 3) << r << "," << c;
    }
}

TEST(Sobel, VerticalRampGivesConstantGy) {
  Mat src = rampY(32, 16, 2);
  Mat gy;
  Sobel(src, gy, Depth::S16, 0, 1, 3);
  for (int r = 4; r < 28; ++r) {
    if ((r + 1) * 2 > 255 - 4) break;
    for (int c = 4; c < 12; ++c)
      EXPECT_EQ(gy.at<std::int16_t>(r, c), 8 * 2) << r << "," << c;
  }
}

TEST(Sobel, GxIgnoresVerticalRamp) {
  Mat src = rampY(24, 24, 2);
  Mat gx;
  Sobel(src, gx, Depth::S16, 1, 0, 3);
  for (int r = 4; r < 20; ++r)
    for (int c = 4; c < 20; ++c) {
      if ((r + 1) * 2 <= 250) {
        EXPECT_EQ(gx.at<std::int16_t>(r, c), 0);
      }
    }
}

TEST(Sobel, ConstantImageGivesZeroGradient) {
  Mat src = full(16, 16, U8C1, 99);
  Mat gx, gy;
  Sobel(src, gx, Depth::S16, 1, 0);
  Sobel(src, gy, Depth::S16, 0, 1);
  EXPECT_EQ(countMismatches(gx, zeros(16, 16, S16C1)), 0u);
  EXPECT_EQ(countMismatches(gy, zeros(16, 16, S16C1)), 0u);
}

TEST(Sobel, SignFollowsEdgeDirection) {
  // Dark left half, bright right half: gx positive at the edge.
  Mat src = zeros(16, 16, U8C1);
  for (int r = 0; r < 16; ++r)
    for (int c = 8; c < 16; ++c) src.at<std::uint8_t>(r, c) = 200;
  Mat gx;
  Sobel(src, gx, Depth::S16, 1, 0);
  EXPECT_GT(gx.at<std::int16_t>(8, 8), 0);
  // Flipped image gives negative gradient.
  Mat flipped = zeros(16, 16, U8C1);
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 8; ++c) flipped.at<std::uint8_t>(r, c) = 200;
  Mat gx2;
  Sobel(flipped, gx2, Depth::S16, 1, 0);
  EXPECT_LT(gx2.at<std::int16_t>(8, 8), 0);
}

TEST(Sobel, Ksize5MatchesNaive2D) {
  std::mt19937 rng(3);
  Mat src(13, 17, U8C1);
  for (int r = 0; r < 13; ++r)
    for (int c = 0; c < 17; ++c)
      src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng() & 0xff);
  Mat got;
  Sobel(src, got, Depth::F32, 1, 0, 5);
  std::vector<float> kx, ky, k2d;
  getDerivKernels(kx, ky, 1, 0, 5);
  for (float y : ky)
    for (float x : kx) k2d.push_back(y * x);
  Mat ref;
  filter2D(src, ref, Depth::F32, k2d, 5, 5);
  EXPECT_LT(maxAbsDiff(got, ref), 1e-2);
}

TEST(Sobel, ScaleAppliesLinearly) {
  Mat src = rampX(12, 20, 2);
  Mat a, b;
  Sobel(src, a, Depth::F32, 1, 0, 3, 1.0);
  Sobel(src, b, Depth::F32, 1, 0, 3, 0.25);
  for (int r = 3; r < 9; ++r)
    for (int c = 3; c < 17; ++c)
      EXPECT_FLOAT_EQ(b.at<float>(r, c), a.at<float>(r, c) * 0.25f);
}

TEST(Sobel, MixedSecondDerivative) {
  // dx=1, dy=1 on f(x,y) = x*y has constant positive cross-derivative.
  Mat src(16, 16, F32C1);
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 16; ++c) src.at<float>(r, c) = static_cast<float>(r * c);
  Mat gxy;
  Sobel(src, gxy, Depth::F32, 1, 1, 3);
  for (int r = 4; r < 12; ++r)
    for (int c = 4; c < 12; ++c)
      // Central difference in x gives 2r; central difference of that in y
      // gives 2(r+1) - 2(r-1) = 4.
      EXPECT_FLOAT_EQ(gxy.at<float>(r, c), 4.0f);
}

TEST(Sobel, PathsAgreeBitExact) {
  std::mt19937 rng(6);
  Mat src(25, 39, U8C1);
  for (int r = 0; r < 25; ++r)
    for (int c = 0; c < 39; ++c)
      src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng() & 0xff);
  Mat ref;
  Sobel(src, ref, Depth::S16, 1, 0, 3, 1.0, BorderType::Reflect101,
        KernelPath::Auto);
  for (KernelPath p : {KernelPath::ScalarNoVec, KernelPath::Sse2, KernelPath::Neon}) {
    if (!pathAvailable(p)) continue;
    Mat got;
    Sobel(src, got, Depth::S16, 1, 0, 3, 1.0, BorderType::Reflect101, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(Sobel, RejectsZeroOrder) {
  Mat src = rampX(8, 8), dst;
  EXPECT_THROW(Sobel(src, dst, Depth::S16, 0, 0), Error);
}

}  // namespace
}  // namespace simdcv::imgproc
