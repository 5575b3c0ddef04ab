// Median blur: correctness against a brute-force reference, impulse-noise
// removal, path agreement.
#include "imgproc/median.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "imgproc/border.hpp"
#include "simd/caps.hpp"

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

Mat bruteMedian(const Mat& src, int ksize) {
  const int radius = ksize / 2;
  Mat out(src.rows(), src.cols(), U8C1);
  std::vector<std::uint8_t> win;
  for (int y = 0; y < src.rows(); ++y)
    for (int x = 0; x < src.cols(); ++x) {
      win.clear();
      for (int dy = -radius; dy <= radius; ++dy)
        for (int dx = -radius; dx <= radius; ++dx) {
          const int sy = borderInterpolate(y + dy, src.rows(), BorderType::Replicate);
          const int sx = borderInterpolate(x + dx, src.cols(), BorderType::Replicate);
          win.push_back(src.at<std::uint8_t>(sy, sx));
        }
      std::nth_element(win.begin(), win.begin() + win.size() / 2, win.end());
      out.at<std::uint8_t>(y, x) = win[win.size() / 2];
    }
  return out;
}

TEST(MedianBlur, MatchesBruteForce3x3) {
  const Mat src = randomU8(25, 41, 1);
  const Mat ref = bruteMedian(src, 3);
  for (KernelPath p : caps::availablePaths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    medianBlur(src, got, 3, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(MedianBlur, MatchesBruteForce5x5) {
  const Mat src = randomU8(19, 23, 2);
  const Mat ref = bruteMedian(src, 5);
  Mat got;
  medianBlur(src, got, 5);
  EXPECT_EQ(countMismatches(ref, got), 0u);
}

TEST(MedianBlur, RemovesSaltAndPepper) {
  Mat src = full(32, 32, U8C1, 128);
  std::mt19937 rng(3);
  // Sparse impulses (well under half the window) vanish under the median.
  for (int i = 0; i < 40; ++i) {
    const int r = static_cast<int>(rng() % 32);
    const int c = static_cast<int>(rng() % 32);
    src.at<std::uint8_t>(r, c) = (i & 1) ? 255 : 0;
  }
  // Keep impulses isolated for the check: count survivors instead of exact.
  Mat out;
  medianBlur(src, out, 3);
  int survivors = 0;
  for (int r = 0; r < 32; ++r)
    for (int c = 0; c < 32; ++c)
      if (out.at<std::uint8_t>(r, c) != 128) ++survivors;
  // Clustered impulses can survive; the vast majority must not.
  EXPECT_LT(survivors, 6);
}

TEST(MedianBlur, PreservesConstantAndStepEdge) {
  Mat flat = full(16, 16, U8C1, 42);
  Mat out;
  medianBlur(flat, out, 3);
  EXPECT_EQ(countMismatches(flat, out), 0u);

  // A straight vertical step edge is median-invariant.
  Mat edge(16, 16, U8C1);
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 16; ++c)
      edge.at<std::uint8_t>(r, c) = c < 8 ? 10 : 240;
  medianBlur(edge, out, 3);
  EXPECT_EQ(countMismatches(edge, out), 0u);
}

TEST(MedianBlur, TinyImages) {
  for (int w : {1, 2, 3}) {
    for (int h : {1, 2, 3}) {
      const Mat src = randomU8(h, w, static_cast<unsigned>(w * 10 + h));
      const Mat ref = bruteMedian(src, 3);
      Mat got;
      medianBlur(src, got, 3);
      EXPECT_EQ(countMismatches(ref, got), 0u) << w << "x" << h;
    }
  }
}

TEST(MedianBlur, Validation) {
  Mat src = randomU8(8, 8, 9), dst;
  EXPECT_THROW(medianBlur(src, dst, 4), Error);
  EXPECT_THROW(medianBlur(src, dst, 7), Error);
  Mat c3(4, 4, U8C3);
  EXPECT_THROW(medianBlur(c3, dst, 3), Error);
  Mat empty;
  EXPECT_THROW(medianBlur(empty, dst, 3), Error);
}

TEST(MedianBlur, IdempotentOnItsOwnOutputEventually) {
  // Median filtering converges to a root signal: applying it twice must not
  // move farther from the once-filtered image than the original did.
  const Mat src = randomU8(24, 24, 10);
  Mat once, twice;
  medianBlur(src, once, 3);
  medianBlur(once, twice, 3);
  EXPECT_LE(maxAbsDiff(once, twice), maxAbsDiff(src, once));
}

}  // namespace
}  // namespace simdcv::imgproc
