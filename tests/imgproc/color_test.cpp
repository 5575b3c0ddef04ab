// Color conversion: BT.601 gray weights, path agreement, channel plumbing.
#include "imgproc/color.hpp"

#include <gtest/gtest.h>

#include <random>

#include "simd/caps.hpp"

namespace simdcv::imgproc {
namespace {

Mat randomBgr(int rows, int cols, unsigned seed, int channels = 3) {
  Mat m(rows, cols, PixelType(Depth::U8, channels));
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols * channels; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng());
  return m;
}

int refGray(int b, int g, int r) {
  return (b * 1868 + g * 9617 + r * 4899 + (1 << 13)) >> 14;
}

TEST(CvtColor, Bgr2GrayMatchesFixedPointReference) {
  const Mat src = randomBgr(23, 41, 1);
  for (KernelPath p : caps::availablePaths()) {
    if (!pathAvailable(p)) continue;
    Mat gray;
    cvtColor(src, gray, ColorCode::BGR2GRAY, p);
    ASSERT_EQ(gray.type(), U8C1);
    for (int r = 0; r < src.rows(); ++r)
      for (int c = 0; c < src.cols(); ++c) {
        const std::uint8_t* px = src.ptr<std::uint8_t>(r) + 3 * c;
        ASSERT_EQ(gray.at<std::uint8_t>(r, c), refGray(px[0], px[1], px[2]))
            << toString(p) << " @" << r << "," << c;
      }
  }
}

TEST(CvtColor, AllPathsBitExact) {
  const Mat src = randomBgr(64, 99, 2);
  Mat ref;
  cvtColor(src, ref, ColorCode::BGR2GRAY, KernelPath::Auto);
  for (KernelPath p : caps::availablePaths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    cvtColor(src, got, ColorCode::BGR2GRAY, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(CvtColor, Rgb2GraySwapsWeights) {
  Mat px(1, 1, U8C3);
  px.at<std::uint8_t>(0, 0) = 10;   // first channel
  px.at<std::uint8_t>(0, 1) = 20;
  px.at<std::uint8_t>(0, 2) = 30;   // third channel
  Mat asBgr, asRgb;
  cvtColor(px, asBgr, ColorCode::BGR2GRAY);
  cvtColor(px, asRgb, ColorCode::RGB2GRAY);
  EXPECT_EQ(asBgr.at<std::uint8_t>(0, 0), refGray(10, 20, 30));
  EXPECT_EQ(asRgb.at<std::uint8_t>(0, 0), refGray(30, 20, 10));
}

TEST(CvtColor, GrayOfGrayPixelIsIdentity) {
  // Weights sum to 16384, so a neutral pixel maps to itself.
  for (int v : {0, 1, 127, 128, 254, 255}) {
    Mat px(1, 1, U8C3);
    px.setTo(v);
    Mat gray;
    cvtColor(px, gray, ColorCode::BGR2GRAY);
    EXPECT_EQ(gray.at<std::uint8_t>(0, 0), v);
  }
}

TEST(CvtColor, Gray2BgrReplicates) {
  Mat g(2, 3, U8C1);
  g.setTo(99);
  Mat bgr;
  cvtColor(g, bgr, ColorCode::GRAY2BGR);
  ASSERT_EQ(bgr.channels(), 3);
  for (int c = 0; c < 9; ++c) EXPECT_EQ(bgr.at<std::uint8_t>(1, c), 99);
}

TEST(CvtColor, Bgr2RgbIsInvolution) {
  const Mat src = randomBgr(9, 17, 3);
  Mat rgb, back;
  cvtColor(src, rgb, ColorCode::BGR2RGB);
  cvtColor(rgb, back, ColorCode::BGR2RGB);
  EXPECT_EQ(countMismatches(src, back), 0u);
  EXPECT_EQ(rgb.at<std::uint8_t>(0, 0), src.at<std::uint8_t>(0, 2));
}

TEST(CvtColor, AlphaRoundTrip) {
  const Mat src = randomBgr(5, 7, 4);
  Mat bgra, back;
  cvtColor(src, bgra, ColorCode::BGR2BGRA);
  ASSERT_EQ(bgra.channels(), 4);
  EXPECT_EQ(bgra.at<std::uint8_t>(0, 3), 255);  // alpha filled
  cvtColor(bgra, back, ColorCode::BGRA2BGR);
  EXPECT_EQ(countMismatches(src, back), 0u);
}

TEST(CvtColor, RejectsWrongChannels) {
  Mat gray(4, 4, U8C1), dst;
  EXPECT_THROW(cvtColor(gray, dst, ColorCode::BGR2GRAY), Error);
  Mat f(4, 4, F32C1);
  EXPECT_THROW(cvtColor(f, dst, ColorCode::GRAY2BGR), Error);
}

}  // namespace
}  // namespace simdcv::imgproc
