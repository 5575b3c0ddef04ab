// Morphology: erosion/dilation algebra, brute-force agreement, box filter.
#include "imgproc/morphology.hpp"
#include "simd/caps.hpp"

#include <gtest/gtest.h>

#include <random>

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
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng());
  return m;
}

Mat bruteMorph(const Mat& src, Size k, bool isMin) {
  Mat out(src.rows(), src.cols(), U8C1);
  const int rx = k.width / 2, ry = k.height / 2;
  for (int y = 0; y < src.rows(); ++y)
    for (int x = 0; x < src.cols(); ++x) {
      int acc = isMin ? 255 : 0;
      for (int dy = -ry; dy <= ry; ++dy)
        for (int dx = -rx; dx <= rx; ++dx) {
          const int sy = borderInterpolate(y + dy, src.rows(), BorderType::Replicate);
          const int sx = borderInterpolate(x + dx, src.cols(), BorderType::Replicate);
          const int v = src.at<std::uint8_t>(sy, sx);
          acc = isMin ? std::min(acc, v) : std::max(acc, v);
        }
      out.at<std::uint8_t>(y, x) = static_cast<std::uint8_t>(acc);
    }
  return out;
}

TEST(Morphology, ErodeMatchesBruteForce) {
  const Mat src = randomU8(21, 37, 1);
  for (Size k : {Size{3, 3}, Size{5, 3}, Size{1, 7}}) {
    const Mat ref = bruteMorph(src, k, /*isMin=*/true);
    for (KernelPath p : paths()) {
      if (!pathAvailable(p)) continue;
      Mat got;
      erode(src, got, k, p);
      EXPECT_EQ(countMismatches(ref, got), 0u)
          << toString(p) << " " << k.width << "x" << k.height;
    }
  }
}

TEST(Morphology, DilateMatchesBruteForce) {
  const Mat src = randomU8(19, 43, 2);
  for (Size k : {Size{3, 3}, Size{3, 5}}) {
    const Mat ref = bruteMorph(src, k, /*isMin=*/false);
    for (KernelPath p : paths()) {
      if (!pathAvailable(p)) continue;
      Mat got;
      dilate(src, got, k, p);
      EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
    }
  }
}

TEST(Morphology, ErodeDilateDuality) {
  // erode(src) == 255 - dilate(255 - src)  (grayscale duality).
  const Mat src = randomU8(16, 29, 3);
  Mat inv(16, 29, U8C1);
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 29; ++c)
      inv.at<std::uint8_t>(r, c) =
          static_cast<std::uint8_t>(255 - src.at<std::uint8_t>(r, c));
  Mat eroded, dilatedInv;
  erode(src, eroded, {3, 3});
  dilate(inv, dilatedInv, {3, 3});
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 29; ++c)
      EXPECT_EQ(eroded.at<std::uint8_t>(r, c),
                255 - dilatedInv.at<std::uint8_t>(r, c));
}

TEST(Morphology, OrderingProperties) {
  const Mat src = randomU8(16, 16, 4);
  Mat er, di;
  erode(src, er, {3, 3});
  dilate(src, di, {3, 3});
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 16; ++c) {
      EXPECT_LE(er.at<std::uint8_t>(r, c), src.at<std::uint8_t>(r, c));
      EXPECT_GE(di.at<std::uint8_t>(r, c), src.at<std::uint8_t>(r, c));
    }
}

TEST(Morphology, OpeningRemovesSpecksClosingFillsHoles) {
  Mat specks = zeros(16, 16, U8C1);
  specks.at<std::uint8_t>(8, 8) = 255;  // isolated bright pixel
  Mat opened;
  morphOpen(specks, opened, {3, 3});
  EXPECT_EQ(countMismatches(opened, zeros(16, 16, U8C1)), 0u);

  Mat holes = full(16, 16, U8C1, 255);
  holes.at<std::uint8_t>(8, 8) = 0;  // isolated dark pixel
  Mat closed;
  morphClose(holes, closed, {3, 3});
  EXPECT_EQ(countMismatches(closed, full(16, 16, U8C1, 255)), 0u);
}

TEST(Morphology, IdentityKernelIsNoOp) {
  const Mat src = randomU8(8, 8, 5);
  Mat er, di;
  erode(src, er, {1, 1});
  dilate(src, di, {1, 1});
  EXPECT_EQ(countMismatches(src, er), 0u);
  EXPECT_EQ(countMismatches(src, di), 0u);
}

TEST(Morphology, Validation) {
  Mat src = randomU8(8, 8, 6), dst;
  EXPECT_THROW(erode(src, dst, {2, 3}), Error);
  EXPECT_THROW(dilate(src, dst, {3, 0}), Error);
  Mat f(4, 4, F32C1);
  EXPECT_THROW(erode(f, dst), Error);
}

// morphOpen/morphClose run a cached two-node graph, so a warm close into a
// reused dst keeps dst's storage and needs no intermediate Mat.
TEST(MorphOpenClose, WarmCloseAllocatesNoMat) {
  const Mat src = randomU8(48, 67, 11);
  for (KernelPath p : paths()) {
    Mat dst;
    morphClose(src, dst, {9, 3}, p);  // warm the graph cache and dst
    const std::uint64_t matAllocs = matAllocationCount();
    for (int i = 0; i < 5; ++i) morphClose(src, dst, {9, 3}, p);
    EXPECT_EQ(matAllocationCount(), matAllocs) << toString(p);
  }
}

TEST(BoxFilter, ConstantAndMeanProperties) {
  Mat flat = full(12, 12, U8C1, 80);
  Mat out;
  boxFilter(flat, out, {5, 5});
  EXPECT_EQ(countMismatches(flat, out), 0u);

  // Box of an impulse: uniform window weight 1/(kw*kh).
  Mat impulse = zeros(11, 11, F32C1);
  impulse.at<float>(5, 5) = 9.0f;
  boxFilter(impulse, out, {3, 3});
  for (int r = 4; r <= 6; ++r)
    for (int c = 4; c <= 6; ++c) EXPECT_NEAR(out.at<float>(r, c), 1.0f, 1e-5);
  EXPECT_NEAR(out.at<float>(3, 5), 0.0f, 1e-6);
}

TEST(BoxFilter, AllPathsBitExact) {
  const Mat src = randomU8(24, 31, 7);
  Mat ref;
  boxFilter(src, ref, {5, 5}, BorderType::Reflect101, KernelPath::Auto);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    boxFilter(src, got, {5, 5}, BorderType::Reflect101, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

}  // namespace
}  // namespace simdcv::imgproc
