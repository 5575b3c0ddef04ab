// Conversion kernels: every HAND path must match the scalar reference
// bit-exactly on the documented domain; parameterized across paths and sizes.
#include "core/convert.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/saturate.hpp"
#include "simd/caps.hpp"

namespace simdcv::core {
namespace {

std::vector<float> randomFloats(std::size_t n, float lo, float hi,
                                unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

// All executable paths plus the novec baseline.
std::vector<KernelPath> allPaths() {
  return caps::availablePaths();
}

class Cvt32F16SPathTest
    : public ::testing::TestWithParam<std::tuple<KernelPath, std::size_t>> {};

TEST_P(Cvt32F16SPathTest, MatchesScalarReference) {
  const auto [path, n] = GetParam();
  if (!pathAvailable(path)) GTEST_SKIP();
  const auto src = randomFloats(n, -50000.0f, 50000.0f, 42 + static_cast<unsigned>(n));
  std::vector<std::int16_t> got(n, -1), want(n, -2);
  for (std::size_t i = 0; i < n; ++i) want[i] = saturate_cast<std::int16_t>(src[i]);
  cvt32f16s(src.data(), got.data(), n, path);
  EXPECT_EQ(got, want) << "path=" << toString(path) << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    PathsAndSizes, Cvt32F16SPathTest,
    ::testing::Combine(
        ::testing::ValuesIn(caps::availablePaths()),
        // Sizes straddle the 8-wide vector body and exercise odd tails.
        ::testing::Values<std::size_t>(0, 1, 7, 8, 9, 15, 16, 17, 64, 1000,
                                       4096 + 3)),
    [](const auto& info) {
      return std::string(toString(std::get<0>(info.param))) == "scalar-novec"
                 ? "novec_n" + std::to_string(std::get<1>(info.param))
                 : std::string(toString(std::get<0>(info.param))) + "_n" +
                       std::to_string(std::get<1>(info.param));
    });

TEST(Cvt32F16S, RoundHalfToEvenOnAllPaths) {
  const std::vector<float> src = {0.5f, 1.5f, 2.5f,  3.5f, -0.5f, -1.5f,
                                  -2.5f, -3.5f, 100.5f, 101.5f, 0.0f, -0.0f};
  const std::vector<std::int16_t> want = {0, 2, 2, 4, 0, -2, -2, -4, 100, 102, 0, 0};
  for (KernelPath p : allPaths()) {
    if (!pathAvailable(p)) continue;
    std::vector<std::int16_t> got(src.size());
    cvt32f16s(src.data(), got.data(), src.size(), p);
    EXPECT_EQ(got, want) << toString(p);
  }
}

TEST(Cvt32F16S, SaturatesOnAllPaths) {
  const std::vector<float> src = {32766.6f, 32767.4f, 40000.0f, 1e9f,
                                  -32767.6f, -32768.4f, -40000.0f, -1e9f};
  const std::vector<std::int16_t> want = {32767, 32767, 32767, 32767,
                                          -32768, -32768, -32768, -32768};
  for (KernelPath p : allPaths()) {
    if (!pathAvailable(p)) continue;
    std::vector<std::int16_t> got(src.size());
    cvt32f16s(src.data(), got.data(), src.size(), p);
    EXPECT_EQ(got, want) << toString(p);
  }
}

TEST(Cvt32F16S, PaperNeonVariantTruncates) {
  // The paper's literal ARMv7 kernel truncates toward zero — documentedly
  // NOT bit-exact with the rounding reference.
  const std::vector<float> src = {1.9f, -1.9f, 0.5f, -0.5f, 100.999f,
                                  40000.0f, -40000.0f, 5.0f,
                                  // second vector of 8 to hit the SIMD body
                                  2.5f, -2.5f, 7.1f, -7.9f, 0.0f, 1.0f, -1.0f, 3.3f};
  std::vector<std::int16_t> got(src.size());
  cvt32f16sNeonPaper(src.data(), got.data(), src.size());
  const std::vector<std::int16_t> want = {1, -1, 0, 0, 100, 32767, -32768, 5,
                                          2, -2, 7, -7, 0, 1, -1, 3};
  EXPECT_EQ(got, want);
}

TEST(ConvertTo, F32ToS16Mat) {
  Mat src(37, 53, F32C1);
  for (int r = 0; r < src.rows(); ++r)
    for (int c = 0; c < src.cols(); ++c)
      src.at<float>(r, c) = static_cast<float>(r * 100 - c * 7) + 0.25f;
  for (KernelPath p : allPaths()) {
    if (!pathAvailable(p)) continue;
    Mat dst;
    convertTo(src, dst, Depth::S16, 1.0, 0.0, p);
    ASSERT_EQ(dst.depth(), Depth::S16);
    for (int r = 0; r < src.rows(); ++r)
      for (int c = 0; c < src.cols(); ++c)
        ASSERT_EQ(dst.at<std::int16_t>(r, c),
                  saturate_cast<std::int16_t>(src.at<float>(r, c)))
            << toString(p) << " @" << r << "," << c;
  }
}

// Every HAND-supported depth pair must agree with the scalar reference.
struct PairCase {
  Depth sd, dd;
};

class ConvertPairTest : public ::testing::TestWithParam<PairCase> {};

TEST_P(ConvertPairTest, HandPathsMatchAuto) {
  const auto [sd, dd] = GetParam();
  Mat src(29, 61, PixelType(sd, 1));
  std::mt19937 rng(7);
  for (int r = 0; r < src.rows(); ++r) {
    for (int c = 0; c < src.cols(); ++c) {
      const double v = std::uniform_real_distribution<double>(-400.0, 400.0)(rng);
      switch (sd) {
        case Depth::U8: src.at<std::uint8_t>(r, c) = saturate_cast<std::uint8_t>(v); break;
        case Depth::S16: src.at<std::int16_t>(r, c) = saturate_cast<std::int16_t>(v); break;
        case Depth::F32: src.at<float>(r, c) = static_cast<float>(v); break;
        default: FAIL();
      }
    }
  }
  Mat ref;
  convertTo(src, ref, dd, 1.0, 0.0, KernelPath::Auto);
  for (KernelPath p : caps::availablePaths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    convertTo(src, got, dd, 1.0, 0.0, p);
    EXPECT_EQ(countMismatches(ref, got), 0u)
        << toString(p) << " " << toString(PixelType(sd, 1)) << "->"
        << toString(PixelType(dd, 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    HandPairs, ConvertPairTest,
    ::testing::Values(PairCase{Depth::F32, Depth::S16},
                      PairCase{Depth::F32, Depth::U8},
                      PairCase{Depth::U8, Depth::F32},
                      PairCase{Depth::S16, Depth::F32},
                      PairCase{Depth::U8, Depth::S16},
                      PairCase{Depth::S16, Depth::U8}),
    [](const auto& info) {
      return std::string(toString(info.param.sd)) + "_to_" +
             toString(info.param.dd);
    });

TEST(ConvertTo, ScaledConversion) {
  Mat src(8, 8, U8C1);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(r * 8 + c);
  Mat dst;
  convertTo(src, dst, Depth::F32, 2.0, -10.0);
  EXPECT_FLOAT_EQ(dst.at<float>(0, 0), -10.0f);
  EXPECT_FLOAT_EQ(dst.at<float>(7, 7), 63 * 2.0f - 10.0f);
  // Scaled into u8 saturates.
  Mat dst8;
  convertTo(src, dst8, Depth::U8, 100.0, 0.0);
  EXPECT_EQ(dst8.at<std::uint8_t>(7, 7), 255);
  EXPECT_EQ(dst8.at<std::uint8_t>(0, 0), 0);
  EXPECT_EQ(dst8.at<std::uint8_t>(0, 1), 100);
}

TEST(ConvertTo, SameDepthIsCopy) {
  Mat src(5, 5, S16C1);
  src.setTo(-123);
  Mat dst;
  convertTo(src, dst, Depth::S16);
  EXPECT_EQ(countMismatches(src, dst), 0u);
}

TEST(ConvertTo, AllDepthPairsRoundTripViaF64) {
  // u8 -> every depth -> back: must reproduce the original (u8 fits in all).
  Mat src(9, 13, U8C1);
  for (int r = 0; r < src.rows(); ++r)
    for (int c = 0; c < src.cols(); ++c)
      src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>((r * 31 + c * 7) & 0xff);
  for (Depth mid : {Depth::S8, Depth::U16, Depth::S16, Depth::S32, Depth::F32,
                    Depth::F64}) {
    Mat m, back;
    convertTo(src, m, mid);
    convertTo(m, back, Depth::U8);
    if (mid == Depth::S8) continue;  // s8 clips 128..255 by design
    EXPECT_EQ(countMismatches(src, back), 0u) << toString(mid);
  }
}

TEST(ConvertTo, NonContinuousRoiSource) {
  Mat big(40, 40, F32C1);
  for (int r = 0; r < 40; ++r)
    for (int c = 0; c < 40; ++c) big.at<float>(r, c) = static_cast<float>(r - c) * 1.5f;
  Mat view = big.roi(Rect(5, 5, 20, 20));
  ASSERT_FALSE(view.isContinuous());
  for (KernelPath p : allPaths()) {
    if (!pathAvailable(p)) continue;
    Mat dst;
    convertTo(view, dst, Depth::S16, 1.0, 0.0, p);
    for (int r = 0; r < 20; ++r)
      for (int c = 0; c < 20; ++c)
        ASSERT_EQ(dst.at<std::int16_t>(r, c),
                  saturate_cast<std::int16_t>(view.at<float>(r, c)))
            << toString(p);
  }
}

TEST(ConvertTo, InPlaceDetaches) {
  Mat src(6, 6, F32C1);
  src.setTo(3.7f);
  Mat alias = src;
  convertTo(src, alias, Depth::S16);
  EXPECT_EQ(alias.depth(), Depth::S16);
  EXPECT_EQ(alias.at<std::int16_t>(0, 0), 4);
  EXPECT_FLOAT_EQ(src.at<float>(0, 0), 3.7f);  // source untouched
}

TEST(ConvertTo, EmptySourceThrows) {
  Mat empty, dst;
  EXPECT_THROW(convertTo(empty, dst, Depth::U8), Error);
}

TEST(HasHandKernel, ReportsSupportedPairs) {
  EXPECT_TRUE(hasHandKernel(Depth::F32, Depth::S16, KernelPath::Sse2));
  EXPECT_TRUE(hasHandKernel(Depth::F32, Depth::S16, KernelPath::Neon));
  EXPECT_FALSE(hasHandKernel(Depth::F64, Depth::S16, KernelPath::Sse2));
  EXPECT_FALSE(hasHandKernel(Depth::F32, Depth::S16, KernelPath::Auto));
}

}  // namespace
}  // namespace simdcv::core
