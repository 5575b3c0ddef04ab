// Threshold: all five types x all paths x u8/s16/f32, degenerate thresholds,
// ROI handling, NaN behaviour.
#include "imgproc/threshold.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "simd/caps.hpp"

namespace simdcv::imgproc {
namespace {

std::vector<KernelPath> paths() {
  return caps::availablePaths();
}

Mat randomU8(int rows, int cols, unsigned seed) {
  Mat m(rows, cols, U8C1);
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng() & 0xff);
  return m;
}

std::uint8_t refThresh(std::uint8_t v, int t, std::uint8_t maxval,
                       ThresholdType type) {
  switch (type) {
    case ThresholdType::Binary: return v > t ? maxval : 0;
    case ThresholdType::BinaryInv: return v > t ? 0 : maxval;
    case ThresholdType::Trunc: return v > t ? static_cast<std::uint8_t>(t) : v;
    case ThresholdType::ToZero: return v > t ? v : 0;
    case ThresholdType::ToZeroInv: return v > t ? 0 : v;
  }
  return 0;
}

class ThresholdU8Test
    : public ::testing::TestWithParam<std::tuple<ThresholdType, KernelPath>> {};

TEST_P(ThresholdU8Test, MatchesReference) {
  const auto [type, path] = GetParam();
  if (!pathAvailable(path)) GTEST_SKIP();
  // Odd width forces a vector tail; value 128 sits exactly at the threshold.
  Mat src = randomU8(33, 61, 5);
  src.at<std::uint8_t>(0, 0) = 128;
  src.at<std::uint8_t>(0, 1) = 127;
  src.at<std::uint8_t>(0, 2) = 129;
  Mat dst;
  threshold(src, dst, 128.0, 255.0, type, path);
  for (int r = 0; r < src.rows(); ++r)
    for (int c = 0; c < src.cols(); ++c)
      ASSERT_EQ(dst.at<std::uint8_t>(r, c),
                refThresh(src.at<std::uint8_t>(r, c), 128, 255, type))
          << toString(type) << "/" << toString(path) << " @" << r << "," << c;
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndPaths, ThresholdU8Test,
    ::testing::Combine(::testing::Values(ThresholdType::Binary,
                                         ThresholdType::BinaryInv,
                                         ThresholdType::Trunc,
                                         ThresholdType::ToZero,
                                         ThresholdType::ToZeroInv),
                       ::testing::ValuesIn(caps::availablePaths())),
    [](const auto& info) {
      std::string n = std::string(toString(std::get<0>(info.param))) + "_" +
                      toString(std::get<1>(info.param));
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(Threshold, AllPathsAgreeBitExactU8) {
  Mat src = randomU8(64, 127, 9);
  for (auto type : {ThresholdType::Binary, ThresholdType::BinaryInv,
                    ThresholdType::Trunc, ThresholdType::ToZero,
                    ThresholdType::ToZeroInv}) {
    Mat ref;
    threshold(src, ref, 100.0, 200.0, type, KernelPath::Auto);
    for (KernelPath p : paths()) {
      if (!pathAvailable(p)) continue;
      Mat got;
      threshold(src, got, 100.0, 200.0, type, p);
      EXPECT_EQ(countMismatches(ref, got), 0u)
          << toString(type) << "/" << toString(p);
    }
  }
}

TEST(Threshold, F32AllPathsAgree) {
  Mat src(17, 37, F32C1);
  std::mt19937 rng(3);
  std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
  for (int r = 0; r < src.rows(); ++r)
    for (int c = 0; c < src.cols(); ++c) src.at<float>(r, c) = dist(rng);
  src.at<float>(5, 5) = 12.5f;  // exactly at threshold
  for (auto type : {ThresholdType::Binary, ThresholdType::BinaryInv,
                    ThresholdType::Trunc, ThresholdType::ToZero,
                    ThresholdType::ToZeroInv}) {
    Mat ref;
    threshold(src, ref, 12.5, 77.0, type, KernelPath::Auto);
    for (KernelPath p : paths()) {
      if (!pathAvailable(p)) continue;
      Mat got;
      threshold(src, got, 12.5, 77.0, type, p);
      EXPECT_EQ(countMismatches(ref, got), 0u)
          << toString(type) << "/" << toString(p);
    }
  }
}

TEST(Threshold, F32NaNTreatedAsNotGreater) {
  Mat src(1, 8, F32C1);
  for (int c = 0; c < 8; ++c) src.at<float>(0, c) = std::nanf("");
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat dst;
    threshold(src, dst, 0.0, 255.0, ThresholdType::Binary, p);
    for (int c = 0; c < 8; ++c)
      EXPECT_EQ(dst.at<float>(0, c), 0.0f) << toString(p);
    threshold(src, dst, 0.0, 255.0, ThresholdType::ToZeroInv, p);
    for (int c = 0; c < 8; ++c)
      EXPECT_TRUE(std::isnan(dst.at<float>(0, c))) << toString(p);
  }
}

TEST(Threshold, U8QuantizesThresholdByFloor) {
  Mat src(1, 4, U8C1);
  src.at<std::uint8_t>(0, 0) = 100;
  src.at<std::uint8_t>(0, 1) = 101;
  src.at<std::uint8_t>(0, 2) = 99;
  src.at<std::uint8_t>(0, 3) = 255;
  Mat dst;
  // thresh 100.7 floors to 100: pixel 100 is NOT above, 101 is.
  const double used = threshold(src, dst, 100.7, 255.0, ThresholdType::Binary);
  EXPECT_EQ(used, 100.0);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 0), 0);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 1), 255);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 2), 0);
}

TEST(Threshold, DegenerateU8Thresholds) {
  Mat src = randomU8(8, 8, 11);
  Mat dst;
  threshold(src, dst, -1.0, 200.0, ThresholdType::Binary);
  EXPECT_EQ(countMismatches(dst, full(8, 8, U8C1, 200)), 0u);
  threshold(src, dst, 255.0, 200.0, ThresholdType::Binary);
  EXPECT_EQ(countMismatches(dst, zeros(8, 8, U8C1)), 0u);
  threshold(src, dst, 300.0, 200.0, ThresholdType::BinaryInv);
  EXPECT_EQ(countMismatches(dst, full(8, 8, U8C1, 200)), 0u);
  threshold(src, dst, 300.0, 200.0, ThresholdType::Trunc);
  EXPECT_EQ(countMismatches(dst, src), 0u);  // nothing above: copy
  threshold(src, dst, -5.0, 200.0, ThresholdType::ToZero);
  EXPECT_EQ(countMismatches(dst, src), 0u);  // everything above: copy
  threshold(src, dst, -5.0, 200.0, ThresholdType::ToZeroInv);
  EXPECT_EQ(countMismatches(dst, zeros(8, 8, U8C1)), 0u);
}

TEST(Threshold, S16ScalarPath) {
  Mat src(4, 9, S16C1);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 9; ++c)
      src.at<std::int16_t>(r, c) = static_cast<std::int16_t>((r * 9 + c) * 100 - 1500);
  Mat dst;
  threshold(src, dst, 0.0, 1000.0, ThresholdType::Binary);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 9; ++c)
      EXPECT_EQ(dst.at<std::int16_t>(r, c),
                src.at<std::int16_t>(r, c) > 0 ? 1000 : 0);
}

// The S16 VecTraits body against the scalar-novec arm on every path, at
// widths around one and two vectors of every backend, with values at the
// signed rails and on both sides of the threshold.
TEST(Threshold, S16AllPathsAgreeAtRailsAndSeams) {
  std::mt19937 rng(16);
  for (const double t : {-32768.0, -1.0, 0.0, 999.0, 32767.0}) {
    const auto t16 = static_cast<int>(t);
    const int rail[] = {-32768, -32767, t16 - 1, t16, t16 + 1, 0, 32766, 32767};
    for (int width : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129}) {
      Mat src(3, width, S16C1);
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < width; ++c)
          src.at<std::int16_t>(r, c) = static_cast<std::int16_t>(
              std::clamp(rail[rng() % 8], -32768, 32767));
      for (auto type : {ThresholdType::Binary, ThresholdType::BinaryInv,
                        ThresholdType::Trunc, ThresholdType::ToZero,
                        ThresholdType::ToZeroInv}) {
        Mat ref;
        threshold(src, ref, t, -7.0, type, KernelPath::ScalarNoVec);
        for (KernelPath p : caps::availablePaths()) {
          Mat got;
          threshold(src, got, t, -7.0, type, p);
          EXPECT_EQ(countMismatches(ref, got), 0u)
              << toString(type) << "/" << toString(p) << " t=" << t
              << " width=" << width;
        }
      }
    }
  }
}

TEST(Threshold, MultiChannelElementwise) {
  Mat src(4, 4, U8C3);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 12; ++c)
      src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(r * 40 + c * 5);
  Mat dst;
  threshold(src, dst, 60.0, 255.0, ThresholdType::Binary);
  ASSERT_EQ(dst.channels(), 3);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 12; ++c)
      EXPECT_EQ(dst.at<std::uint8_t>(r, c),
                src.at<std::uint8_t>(r, c) > 60 ? 255 : 0);
}

TEST(Threshold, RoiSourceNonContinuous) {
  Mat big = randomU8(32, 32, 13);
  Mat view = big.roi(Rect(3, 3, 17, 19));
  ASSERT_FALSE(view.isContinuous());
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat dst;
    threshold(view, dst, 128.0, 255.0, ThresholdType::Binary, p);
    for (int r = 0; r < view.rows(); ++r)
      for (int c = 0; c < view.cols(); ++c)
        ASSERT_EQ(dst.at<std::uint8_t>(r, c),
                  view.at<std::uint8_t>(r, c) > 128 ? 255 : 0)
            << toString(p);
  }
}

TEST(Threshold, InPlaceWorks) {
  Mat src = randomU8(16, 16, 17);
  Mat expect;
  threshold(src, expect, 90.0, 255.0, ThresholdType::Binary);
  Mat inplace = src;  // shares storage
  threshold(src, inplace, 90.0, 255.0, ThresholdType::Binary);
  EXPECT_EQ(countMismatches(expect, inplace), 0u);
}

TEST(Threshold, MaxvalSaturatesU8) {
  Mat src = randomU8(4, 4, 19);
  Mat dst;
  threshold(src, dst, 0.0, 400.0, ThresholdType::Binary);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_EQ(dst.at<std::uint8_t>(r, c),
                src.at<std::uint8_t>(r, c) > 0 ? 255 : 0);
}

TEST(Threshold, RejectsUnsupportedDepth) {
  Mat src(4, 4, F64C1), dst;
  EXPECT_THROW(threshold(src, dst, 0.5, 1.0, ThresholdType::Binary), Error);
  Mat empty;
  EXPECT_THROW(threshold(empty, dst, 0.5, 1.0, ThresholdType::Binary), Error);
}

}  // namespace
}  // namespace simdcv::imgproc
