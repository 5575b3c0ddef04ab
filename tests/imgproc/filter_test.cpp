// Separable filter engine: worker-level checks, equivalence with the naive
// 2-D reference, border modes, path agreement, Gaussian properties.
#include "imgproc/filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>

#include "imgproc/kernels.hpp"
#include "simd/caps.hpp"

namespace simdcv::imgproc {
namespace {

std::vector<KernelPath> paths() {
  return {KernelPath::ScalarNoVec, KernelPath::Auto, KernelPath::Sse2,
          KernelPath::Avx2, KernelPath::Neon};
}

Mat randomU8(int rows, int cols, unsigned seed) {
  Mat m(rows, cols, U8C1);
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng() & 0xff);
  return m;
}

Mat randomF32(int rows, int cols, unsigned seed, float lo = -10.f, float hi = 10.f) {
  Mat m(rows, cols, F32C1);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) m.at<float>(r, c) = dist(rng);
  return m;
}

// ---- worker level -------------------------------------------------------------
TEST(RowConvWorkers, AllPathsMatchReference) {
  const int width = 37;
  const std::vector<float> k = {0.25f, 0.5f, 0.25f};
  std::vector<float> padded(width + 2);
  std::mt19937 rng(2);
  std::uniform_real_distribution<float> dist(-5.f, 5.f);
  for (auto& v : padded) v = dist(rng);
  std::vector<float> want(width);
  for (int i = 0; i < width; ++i)
    want[static_cast<std::size_t>(i)] =
        k[0] * padded[i] + k[1] * padded[i + 1] + k[2] * padded[i + 2];
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    std::vector<float> got(width, -1);
    detail::rowConvFor(p)(padded.data(), got.data(), width, k.data(),
                          static_cast<int>(k.size()));
    for (int i = 0; i < width; ++i)
      ASSERT_EQ(got[static_cast<std::size_t>(i)], want[static_cast<std::size_t>(i)])
          << toString(p) << " i=" << i;
  }
}

TEST(ColConvWorkers, AllPathsMatchReference) {
  const int width = 29;
  const std::vector<float> k = {0.1f, 0.2f, 0.4f, 0.2f, 0.1f};
  std::vector<std::vector<float>> rows(5, std::vector<float>(width));
  std::mt19937 rng(4);
  std::uniform_real_distribution<float> dist(-3.f, 3.f);
  for (auto& row : rows)
    for (auto& v : row) v = dist(rng);
  std::vector<const float*> taps;
  for (auto& row : rows) taps.push_back(row.data());
  std::vector<float> want(width);
  for (int i = 0; i < width; ++i) {
    float acc = 0;
    for (int r = 0; r < 5; ++r) acc += k[static_cast<std::size_t>(r)] * rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
    want[static_cast<std::size_t>(i)] = acc;
  }
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    std::vector<float> got(width, -1);
    detail::colConvFor(p)(taps.data(), got.data(), width, k.data(), 5);
    for (int i = 0; i < width; ++i)
      ASSERT_EQ(got[static_cast<std::size_t>(i)], want[static_cast<std::size_t>(i)])
          << toString(p) << " i=" << i;
  }
}

// Width sweep over the blocked bodies: every width 1..4*64+3 covers the
// 4-vector main loop, the 1-vector loop and the scalar tail at every lane
// count (4L-1, 4L, 4L+1 for L = 4, 8, 16). Taps are asymmetric with negative
// entries; the data never hits +-0, so the byte compare is unaffected by the
// scalar arm's 0.0f + (-0.0f) start.
TEST(SepConvWorkers, WidthSweepByteEqualToNovec) {
  constexpr int kMaxWidth = 4 * 64 + 3;
  constexpr int kMaxK = 15;
  std::mt19937 rng(16);
  std::uniform_real_distribution<float> dist(0.5f, 4.f);
  std::vector<float> data(static_cast<std::size_t>(kMaxK) * (kMaxWidth + kMaxK));
  for (auto& v : data) v = (rng() & 1) ? dist(rng) : -dist(rng);
  std::vector<const float*> taps;
  for (int r = 0; r < kMaxK; ++r)
    taps.push_back(data.data() + static_cast<std::size_t>(r) * (kMaxWidth + kMaxK));
  for (int ksize : {1, 3, 5, 7, 9, 15}) {
    std::vector<float> k(static_cast<std::size_t>(ksize));
    for (int j = 0; j < ksize; ++j)
      k[static_cast<std::size_t>(j)] = 0.37f * static_cast<float>(j + 1) -
                                       (j % 3 == 1 ? 1.9f : 0.f);
    for (KernelPath p : caps::availablePaths()) {
      for (int width = 1; width <= kMaxWidth; ++width) {
        const auto n = static_cast<std::size_t>(width);
        std::vector<float> want(n), got(n, -1.f);
        detail::rowConvFor(KernelPath::ScalarNoVec)(taps[0], want.data(), width,
                                                    k.data(), ksize);
        detail::rowConvFor(p)(taps[0], got.data(), width, k.data(), ksize);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(float)))
            << "rowConv " << toString(p) << " ksize=" << ksize << " width=" << width;
        detail::colConvFor(KernelPath::ScalarNoVec)(taps.data(), want.data(),
                                                    width, k.data(), ksize);
        std::fill(got.begin(), got.end(), -1.f);
        detail::colConvFor(p)(taps.data(), got.data(), width, k.data(), ksize);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(float)))
            << "colConv " << toString(p) << " ksize=" << ksize << " width=" << width;
      }
    }
  }
}

// ---- engine vs naive 2-D reference ---------------------------------------------
TEST(SepFilter2D, MatchesFilter2DOuterProduct) {
  const Mat src = randomU8(21, 34, 7);
  const std::vector<float> kx = {0.25f, 0.5f, 0.25f};
  const std::vector<float> ky = {0.1f, 0.3f, 0.6f};  // asymmetric on purpose
  std::vector<float> k2d;
  for (float y : ky)
    for (float x : kx) k2d.push_back(y * x);
  for (auto border : {BorderType::Replicate, BorderType::Reflect,
                      BorderType::Reflect101, BorderType::Wrap}) {
    Mat sep, ref;
    sepFilter2D(src, sep, Depth::F32, kx, ky, border);
    filter2D(src, ref, Depth::F32, k2d, 3, 3, border);
    EXPECT_LT(maxAbsDiff(sep, ref), 1e-3) << toString(border);
  }
}

TEST(SepFilter2D, ConstantBorderMatchesNaive) {
  const Mat src = randomU8(12, 15, 8);
  const std::vector<float> kx = {1.f, 2.f, 1.f};
  const std::vector<float> ky = {-1.f, 0.f, 1.f};
  std::vector<float> k2d;
  for (float y : ky)
    for (float x : kx) k2d.push_back(y * x);
  for (double bv : {0.0, 50.0}) {
    Mat sep, ref;
    sepFilter2D(src, sep, Depth::F32, kx, ky, BorderType::Constant, bv);
    filter2D(src, ref, Depth::F32, k2d, 3, 3, BorderType::Constant, bv);
    EXPECT_LT(maxAbsDiff(sep, ref), 1e-2) << "bv=" << bv;
  }
}

TEST(SepFilter2D, AllPathsBitExact) {
  const Mat src = randomU8(33, 47, 10);
  const auto kx = getGaussianKernel(7, 1.0);
  const auto ky = getGaussianKernel(5, 2.0);
  Mat ref;
  sepFilter2D(src, ref, Depth::U8, kx, ky, BorderType::Reflect101, 0.0,
              KernelPath::Auto);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    sepFilter2D(src, got, Depth::U8, kx, ky, BorderType::Reflect101, 0.0, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(SepFilter2D, F32SourceAllPathsBitExact) {
  const Mat src = randomF32(19, 23, 11);
  const auto kx = getGaussianKernel(3, 0.8);
  const auto ky = getGaussianKernel(3, 0.8);
  Mat ref;
  sepFilter2D(src, ref, Depth::F32, kx, ky, BorderType::Replicate, 0.0,
              KernelPath::Auto);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    sepFilter2D(src, got, Depth::F32, kx, ky, BorderType::Replicate, 0.0, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(SepFilter2D, IdentityKernelIsNoOp) {
  const Mat src = randomU8(9, 9, 12);
  Mat dst;
  sepFilter2D(src, dst, Depth::U8, {1.0f}, {1.0f});
  EXPECT_EQ(countMismatches(src, dst), 0u);
}

TEST(SepFilter2D, TinyImagesAndWideKernels) {
  // Kernel wider than the image exercises heavy border mapping.
  for (auto border : {BorderType::Replicate, BorderType::Reflect101,
                      BorderType::Reflect}) {
    const Mat src = randomU8(3, 4, 13);
    const auto k = getGaussianKernel(9, 2.0);
    std::vector<float> k2d;
    for (float y : k)
      for (float x : k) k2d.push_back(y * x);
    Mat sep, ref;
    sepFilter2D(src, sep, Depth::F32, k, k, border);
    filter2D(src, ref, Depth::F32, k2d, 9, 9, border);
    EXPECT_LT(maxAbsDiff(sep, ref), 1e-3) << toString(border);
  }
}

TEST(SepFilter2D, OneRowAndOneColumnImages) {
  const Mat row = randomU8(1, 40, 14);
  const Mat col = randomU8(40, 1, 15);
  const auto k = getGaussianKernel(5, 1.0);
  Mat a, b;
  sepFilter2D(row, a, Depth::U8, k, k);
  sepFilter2D(col, b, Depth::U8, k, k);
  EXPECT_EQ(a.size(), row.size());
  EXPECT_EQ(b.size(), col.size());
}

TEST(SepFilter2D, S16Output) {
  const Mat src = randomU8(11, 13, 16);
  Mat dst;
  sepFilter2D(src, dst, Depth::S16, {-1.f, 0.f, 1.f}, {1.f, 2.f, 1.f});
  EXPECT_EQ(dst.depth(), Depth::S16);
  Mat ref;
  std::vector<float> k2d;
  for (float y : std::vector<float>{1, 2, 1})
    for (float x : std::vector<float>{-1, 0, 1}) k2d.push_back(y * x);
  filter2D(src, ref, Depth::S16, k2d, 3, 3);
  EXPECT_EQ(countMismatches(ref, dst), 0u);
}

TEST(SepFilter2D, RejectsBadInput) {
  Mat src = randomU8(8, 8, 17), dst;
  EXPECT_THROW(sepFilter2D(src, dst, Depth::U8, {1.f, 1.f}, {1.f}), Error);
  EXPECT_THROW(sepFilter2D(src, dst, Depth::U8, {}, {1.f}), Error);
  Mat c3(4, 4, U8C3);
  EXPECT_THROW(sepFilter2D(c3, dst, Depth::U8, {1.f}, {1.f}), Error);
  Mat empty;
  EXPECT_THROW(sepFilter2D(empty, dst, Depth::U8, {1.f}, {1.f}), Error);
}

// ---- GaussianBlur --------------------------------------------------------------
TEST(GaussianBlur, PreservesConstantImage) {
  Mat src = full(16, 16, U8C1, 77);
  Mat dst;
  GaussianBlur(src, dst, {7, 7}, 1.0);
  EXPECT_EQ(countMismatches(src, dst), 0u);
}

TEST(GaussianBlur, PreservesMeanApproximately) {
  const Mat src = randomU8(64, 64, 18);
  Mat dst;
  GaussianBlur(src, dst, {7, 7}, 1.5);
  auto mean = [](const Mat& m) {
    double s = 0;
    for (int r = 0; r < m.rows(); ++r)
      for (int c = 0; c < m.cols(); ++c) s += m.at<std::uint8_t>(r, c);
    return s / static_cast<double>(m.total());
  };
  EXPECT_NEAR(mean(src), mean(dst), 1.0);
}

TEST(GaussianBlur, ReducesVariance) {
  const Mat src = randomU8(64, 64, 19);
  Mat dst;
  GaussianBlur(src, dst, {7, 7}, 1.0);
  auto variance = [](const Mat& m) {
    double s = 0, s2 = 0;
    for (int r = 0; r < m.rows(); ++r)
      for (int c = 0; c < m.cols(); ++c) {
        const double v = m.at<std::uint8_t>(r, c);
        s += v;
        s2 += v * v;
      }
    const double n = static_cast<double>(m.total());
    return s2 / n - (s / n) * (s / n);
  };
  EXPECT_LT(variance(dst), variance(src) * 0.5);
}

TEST(GaussianBlur, AnisotropicBlursAxesIndependently) {
  // A single bright pixel blurred anisotropically must spread further along
  // the axis with larger sigma.
  Mat src = zeros(31, 31, F32C1);
  src.at<float>(15, 15) = 1000.0f;
  Mat dst;
  GaussianBlur(src, dst, {15, 15}, 3.0, 1.0);  // sigmaX=3 > sigmaY=1
  EXPECT_GT(dst.at<float>(15, 15 + 5), dst.at<float>(15 + 5, 15) * 2);
}

TEST(GaussianBlur, KsizeDerivedFromSigma) {
  const Mat src = randomU8(16, 16, 20);
  Mat a, b;
  GaussianBlur(src, a, {0, 0}, 1.0);
  GaussianBlur(src, b, {gaussianKsizeFromSigma(1.0), gaussianKsizeFromSigma(1.0)}, 1.0);
  EXPECT_EQ(countMismatches(a, b), 0u);
}

TEST(GaussianBlur, PathsAgreeOnPaperConfig) {
  // The paper's benchmark-3 configuration: sigma = 1 anisotropic filter.
  const Mat src = randomU8(48, 77, 21);
  Mat ref;
  GaussianBlur(src, ref, {7, 7}, 1.0, 1.0, BorderType::Reflect101,
               KernelPath::Auto);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    GaussianBlur(src, got, {7, 7}, 1.0, 1.0, BorderType::Reflect101, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

}  // namespace
}  // namespace simdcv::imgproc
