// Canny: edge localization, thinness (NMS), hysteresis behaviour.
#include "imgproc/canny.hpp"
#include "simd/caps.hpp"

#include <gtest/gtest.h>

#include <random>

namespace simdcv::imgproc {
namespace {

int countOn(const Mat& m) {
  int n = 0;
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      if (m.at<std::uint8_t>(r, c)) ++n;
  return n;
}

Mat stepImage(int rows, int cols, int edgeCol) {
  Mat m = zeros(rows, cols, U8C1);
  for (int r = 0; r < rows; ++r)
    for (int c = edgeCol; c < cols; ++c) m.at<std::uint8_t>(r, c) = 200;
  return m;
}

TEST(Canny, FindsAndLocalizesVerticalEdge) {
  const Mat src = stepImage(32, 32, 16);
  Mat edges;
  Canny(src, edges, 100, 300);
  ASSERT_EQ(edges.type(), U8C1);
  // Every interior row fires on exactly one of the two edge-adjacent
  // columns (NMS thins the 2-wide Sobel response to 1).
  for (int r = 2; r < 30; ++r) {
    int rowOn = 0;
    for (int c = 0; c < 32; ++c)
      if (edges.at<std::uint8_t>(r, c)) {
        ++rowOn;
        EXPECT_GE(c, 15);
        EXPECT_LE(c, 16);
      }
    EXPECT_EQ(rowOn, 1) << "row " << r;
  }
}

TEST(Canny, ConstantImageHasNoEdges) {
  Mat edges;
  Canny(full(24, 24, U8C1, 77), edges, 10, 30);
  EXPECT_EQ(countOn(edges), 0);
}

TEST(Canny, EdgesAreThinOnDiagonal) {
  // Diagonal step: NMS must keep the response ~1px wide (allow 2 for the
  // staircase), i.e. on-count close to the diagonal length, not 3-4x it.
  const int n = 48;
  Mat src = zeros(n, n, U8C1);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      if (c > r) src.at<std::uint8_t>(r, c) = 200;
  Mat edges;
  Canny(src, edges, 100, 300);
  const int on = countOn(edges);
  EXPECT_GT(on, n / 2);
  EXPECT_LT(on, 3 * n);
}

TEST(Canny, HysteresisConnectsWeakThroughStrong) {
  // A contrast ramp along one edge: parts above the high threshold must
  // drag connected sections that only clear the low threshold.
  const int n = 64;
  Mat src = zeros(n, n, U8C1);
  for (int r = 0; r < n; ++r) {
    // Edge contrast decays with row: strong at top, weak at bottom.
    const int amp = 200 - r * 2;
    for (int c = n / 2; c < n; ++c)
      src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(amp > 0 ? amp : 0);
  }
  Mat strict, hysteresis;
  Canny(src, strict, 350, 350);       // only the strong section
  Canny(src, hysteresis, 100, 350);   // weak connected section joins
  EXPECT_GT(countOn(hysteresis), countOn(strict));
  // Isolated weak edges (not connected to any strong pixel) stay off:
  Mat weakOnly = zeros(32, 32, U8C1);
  for (int r = 12; r < 20; ++r)
    for (int c = 16; c < 32; ++c) weakOnly.at<std::uint8_t>(r, c) = 30;
  Mat e;
  Canny(weakOnly, e, 100, 1000);  // gradient ~ 8*30=240 > low, < high
  EXPECT_EQ(countOn(e), 0);
}

TEST(Canny, ThresholdMonotonicity) {
  std::mt19937 rng(4);
  Mat src(48, 48, U8C1);
  for (int r = 0; r < 48; ++r)
    for (int c = 0; c < 48; ++c)
      src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng());
  Mat loose, tight;
  Canny(src, loose, 50, 150);
  Canny(src, tight, 200, 600);
  EXPECT_GE(countOn(loose), countOn(tight));
}

TEST(Canny, PathsAgreeBitExact) {
  std::mt19937 rng(5);
  Mat src(40, 56, U8C1);
  for (int r = 0; r < 40; ++r)
    for (int c = 0; c < 56; ++c)
      src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng());
  Mat ref;
  Canny(src, ref, 80, 200, 3, KernelPath::Auto);
  for (KernelPath p : caps::availablePaths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    Canny(src, got, 80, 200, 3, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(Canny, LargerApertures) {
  const Mat src = stepImage(32, 32, 16);
  for (int ap : {3, 5, 7}) {
    Mat edges;
    Canny(src, edges, 100, 300, ap);
    EXPECT_GT(countOn(edges), 16) << "aperture " << ap;
  }
}

TEST(Canny, Validation) {
  Mat src = stepImage(8, 8, 4), dst;
  EXPECT_THROW(Canny(src, dst, 100, 50), Error);    // low > high
  EXPECT_THROW(Canny(src, dst, 10, 20, 4), Error);  // even aperture
  Mat c3(4, 4, U8C3);
  EXPECT_THROW(Canny(c3, dst, 10, 20), Error);
}

}  // namespace
}  // namespace simdcv::imgproc
