// Histogram and Otsu threshold.
#include "imgproc/histogram.hpp"

#include <gtest/gtest.h>

#include <random>

namespace simdcv::imgproc {
namespace {

Mat randomU8(int rows, int cols, unsigned seed) {
  Mat m(rows, cols, U8C1);
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng());
  return m;
}

TEST(CalcHist, CountsEveryPixelOnce) {
  const Mat src = randomU8(37, 53, 1);
  const auto h = calcHist(src);
  std::uint64_t total = 0;
  for (auto v : h) total += v;
  EXPECT_EQ(total, src.total());
  // Cross-check a few bins against manual counts.
  for (int probe : {0, 17, 128, 255}) {
    std::uint32_t manual = 0;
    for (int r = 0; r < src.rows(); ++r)
      for (int c = 0; c < src.cols(); ++c)
        manual += src.at<std::uint8_t>(r, c) == probe;
    EXPECT_EQ(h[static_cast<std::size_t>(probe)], manual) << probe;
  }
}

TEST(CalcHist, DeltaImage) {
  Mat src = zeros(10, 10, U8C1);
  src.at<std::uint8_t>(5, 5) = 200;
  const auto h = calcHist(src);
  EXPECT_EQ(h[0], 99u);
  EXPECT_EQ(h[200], 1u);
}

TEST(CalcHist, WorksOnRoi) {
  Mat big = zeros(16, 16, U8C1);
  big.roi({4, 4, 8, 8}).setTo(9);
  const auto h = calcHist(big.roi({4, 4, 8, 8}));
  EXPECT_EQ(h[9], 64u);
  EXPECT_EQ(h[0], 0u);
}

TEST(Otsu, SeparatesBimodalImage) {
  // Two well-separated modes around 50 and 200.
  Mat src(64, 64, U8C1);
  std::mt19937 rng(4);
  for (int r = 0; r < 64; ++r)
    for (int c = 0; c < 64; ++c) {
      const int base = (r < 32) ? 50 : 200;
      src.at<std::uint8_t>(r, c) =
          static_cast<std::uint8_t>(base + static_cast<int>(rng() % 21) - 10);
    }
  // The between-class variance is flat across the empty gap between modes;
  // our implementation returns the first maximizer, i.e. the upper edge of
  // the low mode (~60). Any value separating the modes is acceptable.
  const double t = otsuThreshold(src);
  EXPECT_GE(t, 55);
  EXPECT_LT(t, 195);
}

TEST(Otsu, DegenerateImages) {
  EXPECT_GE(otsuThreshold(full(8, 8, U8C1, 128)), 0.0);
  Mat twoVal = zeros(8, 8, U8C1);
  twoVal.roi({0, 0, 4, 8}).setTo(255);
  const double t = otsuThreshold(twoVal);
  EXPECT_GE(t, 0);
  EXPECT_LT(t, 255);
}

}  // namespace
}  // namespace simdcv::imgproc
