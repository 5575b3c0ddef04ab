// Resize: identity, exact analytic cases, path agreement, interpolation
// properties.
#include "imgproc/resize.hpp"

#include <gtest/gtest.h>

#include <random>

#include "simd/caps.hpp"

namespace simdcv::imgproc {
namespace {

Mat randomU8(int rows, int cols, unsigned seed, int ch = 1) {
  Mat m(rows, cols, PixelType(Depth::U8, ch));
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols * ch; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng());
  return m;
}

TEST(Resize, IdentitySizeIsExactCopy) {
  const Mat src = randomU8(17, 23, 1);
  for (auto interp : {Interp::Nearest, Interp::Linear}) {
    Mat dst;
    resize(src, dst, {23, 17}, interp);
    EXPECT_EQ(countMismatches(src, dst), 0u);
  }
}

TEST(Resize, NearestUpscale2xReplicatesPixels) {
  Mat src(2, 2, U8C1);
  src.at<std::uint8_t>(0, 0) = 10;
  src.at<std::uint8_t>(0, 1) = 20;
  src.at<std::uint8_t>(1, 0) = 30;
  src.at<std::uint8_t>(1, 1) = 40;
  Mat dst;
  resize(src, dst, {4, 4}, Interp::Nearest);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 0), 10);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 1), 10);
  EXPECT_EQ(dst.at<std::uint8_t>(1, 1), 10);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 2), 20);
  EXPECT_EQ(dst.at<std::uint8_t>(3, 3), 40);
  EXPECT_EQ(dst.at<std::uint8_t>(2, 0), 30);
}

TEST(Resize, LinearConstantImageStaysConstant) {
  const Mat src = full(10, 14, U8C1, 137);
  Mat up, down;
  resize(src, up, {29, 21});
  resize(src, down, {5, 3});
  EXPECT_EQ(countMismatches(up, full(21, 29, U8C1, 137)), 0u);
  EXPECT_EQ(countMismatches(down, full(3, 5, U8C1, 137)), 0u);
}

TEST(Resize, LinearMidpointOfTwoPixels) {
  // 1x2 -> 1x4 linear: inner samples sit 0.25/0.75 of the way between.
  Mat src(1, 2, U8C1);
  src.at<std::uint8_t>(0, 0) = 0;
  src.at<std::uint8_t>(0, 1) = 200;
  Mat dst;
  resize(src, dst, {4, 1});
  // sx = (dx+0.5)*0.5 - 0.5 -> -0.25 (clamp 0), 0.25, 0.75 (clamp), 1.25.
  EXPECT_EQ(dst.at<std::uint8_t>(0, 0), 0);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 1), 50);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 2), 150);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 3), 200);
}

TEST(Resize, F32LinearMatchesAnalytic) {
  Mat src(1, 2, F32C1);
  src.at<float>(0, 0) = 0.0f;
  src.at<float>(0, 1) = 1.0f;
  Mat dst;
  resize(src, dst, {4, 1});
  EXPECT_FLOAT_EQ(dst.at<float>(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dst.at<float>(0, 1), 0.25f);
  EXPECT_FLOAT_EQ(dst.at<float>(0, 2), 0.75f);
  EXPECT_FLOAT_EQ(dst.at<float>(0, 3), 1.0f);
}

TEST(Resize, AllPathsBitExactU8) {
  const Mat src = randomU8(37, 53, 2);
  Mat ref;
  resize(src, ref, {97, 71}, Interp::Linear, KernelPath::Auto);
  for (KernelPath p : caps::availablePaths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    resize(src, got, {97, 71}, Interp::Linear, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(Resize, AllPathsBitExactF32) {
  Mat src(21, 30, F32C1);
  std::mt19937 rng(3);
  std::uniform_real_distribution<float> dist(-5.f, 5.f);
  for (int r = 0; r < 21; ++r)
    for (int c = 0; c < 30; ++c) src.at<float>(r, c) = dist(rng);
  Mat ref;
  resize(src, ref, {44, 55}, Interp::Linear, KernelPath::Auto);
  for (KernelPath p : caps::availablePaths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    resize(src, got, {44, 55}, Interp::Linear, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(Resize, C3InterleavedChannelsIndependent) {
  const Mat src = randomU8(8, 8, 4, 3);
  Mat dst;
  resize(src, dst, {16, 16});
  ASSERT_EQ(dst.channels(), 3);
  // Each channel must equal resizing that channel alone.
  for (int k = 0; k < 3; ++k) {
    Mat plane(8, 8, U8C1);
    for (int r = 0; r < 8; ++r)
      for (int c = 0; c < 8; ++c)
        plane.at<std::uint8_t>(r, c) = src.at<std::uint8_t>(r, 3 * c + k);
    Mat presized;
    resize(plane, presized, {16, 16});
    for (int r = 0; r < 16; ++r)
      for (int c = 0; c < 16; ++c)
        ASSERT_EQ(dst.at<std::uint8_t>(r, 3 * c + k),
                  presized.at<std::uint8_t>(r, c))
            << k;
  }
}

TEST(Resize, DownscalePreservesMeanRoughly) {
  const Mat src = randomU8(64, 64, 5);
  Mat dst;
  resize(src, dst, {16, 16});
  auto meanOf = [](const Mat& m) {
    double s = 0;
    for (int r = 0; r < m.rows(); ++r)
      for (int c = 0; c < m.cols(); ++c) s += m.at<std::uint8_t>(r, c);
    return s / static_cast<double>(m.total());
  };
  EXPECT_NEAR(meanOf(src), meanOf(dst), 12.0);
}

TEST(Resize, MonotoneRampStaysMonotone) {
  Mat src(1, 16, U8C1);
  for (int c = 0; c < 16; ++c)
    src.at<std::uint8_t>(0, c) = static_cast<std::uint8_t>(c * 16);
  Mat dst;
  resize(src, dst, {37, 1});
  for (int c = 1; c < 37; ++c)
    EXPECT_GE(dst.at<std::uint8_t>(0, c), dst.at<std::uint8_t>(0, c - 1));
}

TEST(Resize, ExtremeScales) {
  const Mat src = randomU8(13, 17, 6);
  Mat one, big;
  resize(src, one, {1, 1});
  EXPECT_EQ(one.size(), Size(1, 1));
  resize(one, big, {32, 32});
  EXPECT_EQ(countMismatches(big, full(32, 32, U8C1, one.at<std::uint8_t>(0, 0))), 0u);
}

TEST(Resize, Validation) {
  Mat src = randomU8(4, 4, 7), dst;
  EXPECT_THROW(resize(src, dst, {0, 4}), Error);
  Mat s16(4, 4, S16C1);
  EXPECT_THROW(resize(s16, dst, {8, 8}), Error);
  Mat empty;
  EXPECT_THROW(resize(empty, dst, {8, 8}), Error);
}

}  // namespace
}  // namespace simdcv::imgproc
