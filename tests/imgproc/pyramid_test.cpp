// pyrDown: geometry, smoothing behaviour, path agreement.
#include "imgproc/pyramid.hpp"
#include "simd/caps.hpp"

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

TEST(PyrDown, HalvesWithCeil) {
  Mat dst;
  pyrDown(randomU8(10, 10, 1), dst);
  EXPECT_EQ(dst.size(), Size(5, 5));
  pyrDown(randomU8(11, 13, 2), dst);
  EXPECT_EQ(dst.size(), Size(7, 6));
  pyrDown(randomU8(1, 5, 3), dst);
  EXPECT_EQ(dst.size(), Size(3, 1));
}

TEST(PyrDown, ConstantStaysConstant) {
  Mat dst;
  pyrDown(full(16, 16, U8C1, 123), dst);
  EXPECT_EQ(countMismatches(dst, full(8, 8, U8C1, 123)), 0u);
  pyrDown(full(9, 9, F32C1, -2.5), dst);
  for (int r = 0; r < dst.rows(); ++r)
    for (int c = 0; c < dst.cols(); ++c)
      EXPECT_NEAR(dst.at<float>(r, c), -2.5f, 1e-5);
}

TEST(PyrDown, SmoothsBeforeDecimating) {
  // A 1px checkerboard would alias to garbage under naive decimation; the
  // pyramid kernel must average it toward mid-gray instead.
  Mat checker(32, 32, U8C1);
  for (int r = 0; r < 32; ++r)
    for (int c = 0; c < 32; ++c)
      checker.at<std::uint8_t>(r, c) = ((r + c) & 1) ? 255 : 0;
  Mat dst;
  pyrDown(checker, dst);
  for (int r = 2; r < dst.rows() - 2; ++r)
    for (int c = 2; c < dst.cols() - 2; ++c) {
      EXPECT_GT(dst.at<std::uint8_t>(r, c), 90);
      EXPECT_LT(dst.at<std::uint8_t>(r, c), 165);
    }
}

TEST(Pyramid, PathsAgreeBitExact) {
  const Mat src = randomU8(33, 47, 6);
  Mat ref;
  pyrDown(src, ref, KernelPath::Auto);
  for (KernelPath p : caps::availablePaths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    pyrDown(src, got, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(Pyramid, Validation) {
  Mat c3(4, 4, U8C3), dst;
  EXPECT_THROW(pyrDown(c3, dst), Error);
}

}  // namespace
}  // namespace simdcv::imgproc
