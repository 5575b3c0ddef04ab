// Gradient magnitude and the full edge-detection pipeline. edgeDetect runs
// the edge graph (tests/graph covers its schedules, band seams, borders and
// geometry); this file pins the public entry point: an independent dense
// oracle, bit-exactness with the 4-pass reference across the cached graph's
// key, argument rejection and allocation-free repeats.
#include "imgproc/edge.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/convert.hpp"
#include "core/saturate.hpp"
#include "core/scratch.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/kernels.hpp"
#include "runtime/thread_pool.hpp"

namespace simdcv::imgproc {
namespace {

std::vector<KernelPath> paths() {
  return {KernelPath::ScalarNoVec, KernelPath::Auto, KernelPath::Sse2,
          KernelPath::Avx2, KernelPath::Neon};
}

std::vector<BorderType> allBorders() {
  return {BorderType::Constant, BorderType::Replicate, BorderType::Reflect,
          BorderType::Reflect101, BorderType::Wrap};
}

Mat randomU8(int rows, int cols, unsigned seed) {
  Mat m(rows, cols, U8C1);
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng() & 0xff);
  return m;
}

Mat randomS16(int rows, int cols, unsigned seed, int lo = -32768, int hi = 32767) {
  Mat m(rows, cols, S16C1);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(lo, hi);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m.at<std::int16_t>(r, c) = static_cast<std::int16_t>(dist(rng));
  return m;
}

TEST(Magnitude, MatchesScalarDefinition) {
  const Mat gx = randomS16(13, 37, 1, -1000, 1000);
  const Mat gy = randomS16(13, 37, 2, -1000, 1000);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat mag;
    gradientMagnitude(gx, gy, mag, p);
    for (int r = 0; r < gx.rows(); ++r)
      for (int c = 0; c < gx.cols(); ++c) {
        const int want = std::min(
            255, std::abs(static_cast<int>(gx.at<std::int16_t>(r, c))) +
                     std::abs(static_cast<int>(gy.at<std::int16_t>(r, c))));
        ASSERT_EQ(mag.at<std::uint8_t>(r, c), want) << toString(p);
      }
  }
}

TEST(Magnitude, AllPathsBitExactOnFullS16Range) {
  // Includes INT16_MIN, where saturating-abs semantics matter.
  const Mat gx = randomS16(16, 33, 3);
  const Mat gy = randomS16(16, 33, 4);
  Mat ref;
  gradientMagnitude(gx, gy, ref, KernelPath::Auto);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    gradientMagnitude(gx, gy, got, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(Magnitude, ExtremeValuesSaturateTo255) {
  Mat gx(1, 8, S16C1), gy(1, 8, S16C1);
  gx.setTo(-32768);
  gy.setTo(-32768);
  Mat mag;
  gradientMagnitude(gx, gy, mag);
  for (int c = 0; c < 8; ++c) EXPECT_EQ(mag.at<std::uint8_t>(0, c), 255);
}

TEST(Magnitude, ZeroGradientsGiveZero) {
  Mat gx = zeros(4, 4, S16C1), gy = zeros(4, 4, S16C1), mag;
  gradientMagnitude(gx, gy, mag);
  EXPECT_EQ(countMismatches(mag, zeros(4, 4, U8C1)), 0u);
}

TEST(Magnitude, RejectsMismatchedInputs) {
  Mat a = zeros(4, 4, S16C1), b = zeros(4, 5, S16C1), dst;
  EXPECT_THROW(gradientMagnitude(a, b, dst), Error);
  Mat f = zeros(4, 4, F32C1);
  EXPECT_THROW(gradientMagnitude(a, f, dst), Error);
}

TEST(Magnitude, NonContiguousRoiInputs) {
  Mat bigGx(30, 30, S16C1), bigGy(30, 30, S16C1);
  std::mt19937 rng(77);
  for (int r = 0; r < 30; ++r)
    for (int c = 0; c < 30; ++c) {
      bigGx.at<std::int16_t>(r, c) = static_cast<std::int16_t>(rng());
      bigGy.at<std::int16_t>(r, c) = static_cast<std::int16_t>(rng());
    }
  const Mat gx = bigGx.roi({3, 4, 21, 17});
  const Mat gy = bigGy.roi({3, 4, 21, 17});
  ASSERT_FALSE(gx.isContinuous());
  Mat gxc(gx.rows(), gx.cols(), S16C1), gyc(gy.rows(), gy.cols(), S16C1);
  gx.copyTo(gxc);
  gy.copyTo(gyc);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat fromRoi, fromCopy;
    gradientMagnitude(gx, gy, fromRoi, p);
    gradientMagnitude(gxc, gyc, fromCopy, p);
    EXPECT_EQ(countMismatches(fromRoi, fromCopy), 0u) << toString(p);
  }
}

TEST(EdgeDetect, FindsVerticalEdge) {
  Mat src = zeros(32, 32, U8C1);
  for (int r = 0; r < 32; ++r)
    for (int c = 16; c < 32; ++c) src.at<std::uint8_t>(r, c) = 220;
  Mat edges;
  edgeDetect(src, edges, 100.0);
  ASSERT_EQ(edges.depth(), Depth::U8);
  // Edge pixels near column 16 fire; far-away pixels do not.
  int onNearEdge = 0;
  for (int r = 8; r < 24; ++r)
    for (int c = 15; c <= 16; ++c)
      if (edges.at<std::uint8_t>(r, c) == 255) ++onNearEdge;
  EXPECT_GT(onNearEdge, 16);
  for (int r = 8; r < 24; ++r) {
    EXPECT_EQ(edges.at<std::uint8_t>(r, 4), 0);
    EXPECT_EQ(edges.at<std::uint8_t>(r, 28), 0);
  }
}

TEST(EdgeDetect, OutputIsBinary) {
  std::mt19937 rng(9);
  Mat src(24, 24, U8C1);
  for (int r = 0; r < 24; ++r)
    for (int c = 0; c < 24; ++c)
      src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng() & 0xff);
  Mat edges;
  edgeDetect(src, edges, 150.0);
  for (int r = 0; r < 24; ++r)
    for (int c = 0; c < 24; ++c) {
      const auto v = edges.at<std::uint8_t>(r, c);
      EXPECT_TRUE(v == 0 || v == 255) << static_cast<int>(v);
    }
}

TEST(EdgeDetect, ConstantImageHasNoEdges) {
  Mat src = full(16, 16, U8C1, 128);
  Mat edges;
  edgeDetect(src, edges, 10.0);
  EXPECT_EQ(countMismatches(edges, zeros(16, 16, U8C1)), 0u);
}

TEST(EdgeDetect, ThresholdControlsSensitivity) {
  std::mt19937 rng(10);
  Mat src(32, 32, U8C1);
  for (int r = 0; r < 32; ++r)
    for (int c = 0; c < 32; ++c)
      src.at<std::uint8_t>(r, c) =
          static_cast<std::uint8_t>(128 + (static_cast<int>(rng() % 64)) - 32);
  auto countOn = [](const Mat& m) {
    int n = 0;
    for (int r = 0; r < m.rows(); ++r)
      for (int c = 0; c < m.cols(); ++c)
        if (m.at<std::uint8_t>(r, c)) ++n;
    return n;
  };
  Mat low, high;
  edgeDetect(src, low, 20.0);
  edgeDetect(src, high, 200.0);
  EXPECT_GT(countOn(low), countOn(high));
}

TEST(EdgeDetect, AllPathsBitExact) {
  std::mt19937 rng(11);
  Mat src(29, 43, U8C1);
  for (int r = 0; r < 29; ++r)
    for (int c = 0; c < 43; ++c)
      src.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng() & 0xff);
  Mat ref;
  edgeDetect(src, ref, 120.0, 3, BorderType::Reflect101, KernelPath::Auto);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    edgeDetect(src, got, 120.0, 3, BorderType::Reflect101, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

// Independent golden oracle: dense filter2D with the outer-product Sobel
// kernels, magnitude and threshold applied per the documented definition.
// For u8 input and ksize 3 every intermediate is a small integer, exactly
// representable in float, so the expectation is exact.
TEST(EdgeDetect, MatchesDenseFilter2DOracle) {
  const Mat src = randomU8(14, 18, 21);
  const int ksize = 3;
  std::vector<float> kxd, kys, kxs, kyd;
  getDerivKernels(kxd, kys, 1, 0, ksize, false);  // gx: deriv(x), smooth(y)
  getDerivKernels(kxs, kyd, 0, 1, ksize, false);  // gy: smooth(x), deriv(y)
  auto outer = [&](const std::vector<float>& ky, const std::vector<float>& kx) {
    std::vector<float> k(static_cast<std::size_t>(ksize) * ksize);
    for (int r = 0; r < ksize; ++r)
      for (int c = 0; c < ksize; ++c)
        k[static_cast<std::size_t>(r) * ksize + c] =
            ky[static_cast<std::size_t>(r)] * kx[static_cast<std::size_t>(c)];
    return k;
  };
  Mat gxf, gyf;
  filter2D(src, gxf, Depth::F32, outer(kys, kxd), ksize, ksize,
           BorderType::Reflect101);
  filter2D(src, gyf, Depth::F32, outer(kyd, kxs), ksize, ksize,
           BorderType::Reflect101);
  const double thresh = 120.0;
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    edgeDetect(src, got, thresh, ksize, BorderType::Reflect101, p);
    for (int r = 0; r < src.rows(); ++r)
      for (int c = 0; c < src.cols(); ++c) {
        const int gx = saturate_cast<std::int16_t>(gxf.at<float>(r, c));
        const int gy = saturate_cast<std::int16_t>(gyf.at<float>(r, c));
        const int mag = std::min(255, std::abs(gx) + std::abs(gy));
        const std::uint8_t want = mag > static_cast<int>(thresh) ? 255 : 0;
        ASSERT_EQ(got.at<std::uint8_t>(r, c), want)
            << toString(p) << " at (" << r << "," << c << ")";
      }
  }
}

// edgeDetect keeps one cached graph per thread, keyed on (source depth,
// thresh, ksize, border). The calls walk every key combination in reflected
// Gray-code order, so consecutive calls differ in exactly one key and a key
// missing from the cache shows up as a stale graph. Each call is diffed
// against the uncached 4-pass scalar reference, on every path and at 1 and
// 4 threads.
TEST(EdgeDetect, CachedGraphMatchesUnfusedAcrossKeys) {
  Mat u8 = randomU8(19, 21, 7), f32;
  core::convertTo(u8, f32, Depth::F32);
  const Mat* srcs[] = {&u8, &f32};
  const int ksizes[] = {3, 5};
  const double threshes[] = {-1.0, 90.0, 254.5};
  const std::vector<BorderType> borders = allBorders();
  const int radix[4] = {2, 2, 3, 5};
  const int prev = runtime::getNumThreads();
  for (int threads : {1, 4}) {
    runtime::setNumThreads(threads);
    for (KernelPath p : paths()) {
      if (!pathAvailable(p)) continue;
      int digit[4] = {0, 0, 0, 0}, dir[4] = {1, 1, 1, 1};
      for (int step = 0; step < 2 * 2 * 3 * 5; ++step) {
        const Mat& src = *srcs[digit[0]];
        const int ksize = ksizes[digit[1]];
        const double thresh = threshes[digit[2]];
        const BorderType b = borders[static_cast<std::size_t>(digit[3])];
        Mat ref, got;
        edgeDetectUnfused(src, ref, thresh, ksize, b, KernelPath::ScalarNoVec);
        edgeDetect(src, got, thresh, ksize, b, p);
        EXPECT_EQ(countMismatches(ref, got), 0u)
            << toString(p) << " threads=" << threads
            << " depth=" << toString(src.depth()) << " " << toString(b)
            << " ksize=" << ksize << " thresh=" << thresh;
        for (int d = 3; d >= 0; --d) {  // next reflected Gray-code tuple
          if (digit[d] + dir[d] >= 0 && digit[d] + dir[d] < radix[d]) {
            digit[d] += dir[d];
            break;
          }
          dir[d] = -dir[d];
        }
      }
    }
  }
  runtime::setNumThreads(prev);
}

TEST(EdgeDetect, RejectsInvalidArguments) {
  const Mat src = randomU8(8, 8, 1);
  Mat dst;
  EXPECT_THROW(edgeDetect(Mat(), dst, 10.0), Error);
  EXPECT_THROW(edgeDetect(src, dst, 10.0, 4), Error);  // even ksize
  EXPECT_THROW(edgeDetect(src, dst, 10.0, 1), Error);  // ksize < 3
  EXPECT_THROW(edgeDetect(zeros(8, 8, F64C1), dst, 10.0), Error);  // depth
}

// Repeated calls at one geometry are allocation-free: dst keeps its storage
// and the fused bands reuse this thread's scratch arena block.
TEST(EdgeDetect, NoAllocationGrowthAcrossRepeatedCalls) {
  const Mat src = randomU8(64, 96, 13);
  Mat dst;
  edgeDetect(src, dst, 100.0);  // warm the graph cache, dst and the arena
  const std::uint64_t matAllocs = matAllocationCount();
  const std::uint64_t refills = core::ScratchArena::forThread().refills();
  for (int i = 0; i < 10; ++i) edgeDetect(src, dst, 100.0);
  EXPECT_EQ(matAllocationCount(), matAllocs);
  EXPECT_EQ(core::ScratchArena::forThread().refills(), refills);
}

}  // namespace
}  // namespace simdcv::imgproc
