// Kernel generators: Gaussian normalization/symmetry, Sobel taps,
// and border index mapping.
#include "imgproc/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "imgproc/border.hpp"

namespace simdcv::imgproc {
namespace {

TEST(GaussianKernel, Sums9ToOneAndSymmetric) {
  for (int ksize : {3, 5, 7, 9, 13}) {
    for (double sigma : {0.5, 1.0, 2.0, 5.0}) {
      const auto k = getGaussianKernel(ksize, sigma);
      ASSERT_EQ(static_cast<int>(k.size()), ksize);
      const double sum = std::accumulate(k.begin(), k.end(), 0.0);
      EXPECT_NEAR(sum, 1.0, 1e-6) << ksize << "/" << sigma;
      for (int i = 0; i < ksize / 2; ++i)
        EXPECT_FLOAT_EQ(k[static_cast<std::size_t>(i)],
                        k[static_cast<std::size_t>(ksize - 1 - i)]);
      // Peak at the center, monotone decay outward.
      for (int i = 0; i < ksize / 2; ++i)
        EXPECT_LT(k[static_cast<std::size_t>(i)],
                  k[static_cast<std::size_t>(i + 1)]);
    }
  }
}

TEST(GaussianKernel, SigmaDerivedFromKsizeWhenNonPositive) {
  const auto a = getGaussianKernel(7, 0.0);
  const auto b = getGaussianKernel(7, 0.3 * ((7 - 1) * 0.5 - 1) + 0.8);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(GaussianKernel, WiderSigmaIsFlatter) {
  const auto narrow = getGaussianKernel(7, 0.8);
  const auto wide = getGaussianKernel(7, 3.0);
  EXPECT_GT(narrow[3], wide[3]);  // center
  EXPECT_LT(narrow[0], wide[0]);  // tail
}

TEST(GaussianKernel, RejectsEvenSize) {
  EXPECT_THROW(getGaussianKernel(4, 1.0), Error);
  EXPECT_THROW(getGaussianKernel(0, 1.0), Error);
}

TEST(GaussianKernel, KsizeFromSigmaIsOddAndGrows) {
  EXPECT_EQ(gaussianKsizeFromSigma(1.0) % 2, 1);
  EXPECT_GE(gaussianKsizeFromSigma(1.0), 3);
  EXPECT_GT(gaussianKsizeFromSigma(3.0), gaussianKsizeFromSigma(1.0));
  EXPECT_THROW(gaussianKsizeFromSigma(0.0), Error);
}

TEST(DerivKernel, Sobel3Taps) {
  const auto smooth = getDerivKernel(0, 3);
  EXPECT_EQ(smooth, (std::vector<float>{1, 2, 1}));
  const auto deriv = getDerivKernel(1, 3);
  EXPECT_EQ(deriv, (std::vector<float>{-1, 0, 1}));
  const auto second = getDerivKernel(2, 3);
  EXPECT_EQ(second, (std::vector<float>{1, -2, 1}));
}

TEST(DerivKernel, Sobel5Taps) {
  EXPECT_EQ(getDerivKernel(0, 5), (std::vector<float>{1, 4, 6, 4, 1}));
  EXPECT_EQ(getDerivKernel(1, 5), (std::vector<float>{-1, -2, 0, 2, 1}));
}

TEST(DerivKernel, DerivativeSumsToZeroSmoothingToPowerOfTwo) {
  for (int ksize : {3, 5, 7}) {
    const auto d = getDerivKernel(1, ksize);
    EXPECT_NEAR(std::accumulate(d.begin(), d.end(), 0.0), 0.0, 1e-9);
    const auto s = getDerivKernel(0, ksize);
    EXPECT_NEAR(std::accumulate(s.begin(), s.end(), 0.0),
                std::pow(2.0, ksize - 1), 1e-9);
  }
}

TEST(DerivKernel, NormalizedSmoothingSumsToOne) {
  const auto s = getDerivKernel(0, 7, /*normalize=*/true);
  EXPECT_NEAR(std::accumulate(s.begin(), s.end(), 0.0), 1.0, 1e-6);
}

TEST(DerivKernel, GetDerivKernelsPairs) {
  std::vector<float> kx, ky;
  getDerivKernels(kx, ky, 1, 0, 3);
  EXPECT_EQ(kx, (std::vector<float>{-1, 0, 1}));
  EXPECT_EQ(ky, (std::vector<float>{1, 2, 1}));
  getDerivKernels(kx, ky, 0, 1, 3);
  EXPECT_EQ(kx, (std::vector<float>{1, 2, 1}));
  EXPECT_EQ(ky, (std::vector<float>{-1, 0, 1}));
}

// ---- border mapping ----------------------------------------------------------
TEST(Border, InRangeIsIdentity) {
  for (auto b : {BorderType::Replicate, BorderType::Reflect,
                 BorderType::Reflect101, BorderType::Wrap}) {
    for (int p = 0; p < 10; ++p) EXPECT_EQ(borderInterpolate(p, 10, b), p);
  }
}

TEST(Border, Replicate) {
  EXPECT_EQ(borderInterpolate(-1, 5, BorderType::Replicate), 0);
  EXPECT_EQ(borderInterpolate(-99, 5, BorderType::Replicate), 0);
  EXPECT_EQ(borderInterpolate(5, 5, BorderType::Replicate), 4);
  EXPECT_EQ(borderInterpolate(99, 5, BorderType::Replicate), 4);
}

TEST(Border, Reflect) {
  // fedcba|abcdefgh|hgfedc
  EXPECT_EQ(borderInterpolate(-1, 8, BorderType::Reflect), 0);
  EXPECT_EQ(borderInterpolate(-2, 8, BorderType::Reflect), 1);
  EXPECT_EQ(borderInterpolate(8, 8, BorderType::Reflect), 7);
  EXPECT_EQ(borderInterpolate(9, 8, BorderType::Reflect), 6);
}

TEST(Border, Reflect101) {
  // gfedcb|abcdefgh|gfedcb
  EXPECT_EQ(borderInterpolate(-1, 8, BorderType::Reflect101), 1);
  EXPECT_EQ(borderInterpolate(-2, 8, BorderType::Reflect101), 2);
  EXPECT_EQ(borderInterpolate(8, 8, BorderType::Reflect101), 6);
  EXPECT_EQ(borderInterpolate(9, 8, BorderType::Reflect101), 5);
}

TEST(Border, Wrap) {
  EXPECT_EQ(borderInterpolate(-1, 8, BorderType::Wrap), 7);
  EXPECT_EQ(borderInterpolate(-8, 8, BorderType::Wrap), 0);
  EXPECT_EQ(borderInterpolate(8, 8, BorderType::Wrap), 0);
  EXPECT_EQ(borderInterpolate(17, 8, BorderType::Wrap), 1);
}

TEST(Border, ConstantSignalsMinusOne) {
  EXPECT_EQ(borderInterpolate(-1, 8, BorderType::Constant), -1);
  EXPECT_EQ(borderInterpolate(8, 8, BorderType::Constant), -1);
  EXPECT_EQ(borderInterpolate(3, 8, BorderType::Constant), 3);
}

TEST(Border, SinglePixelImage) {
  for (auto b : {BorderType::Replicate, BorderType::Reflect,
                 BorderType::Reflect101}) {
    EXPECT_EQ(borderInterpolate(-3, 1, b), 0) << toString(b);
    EXPECT_EQ(borderInterpolate(5, 1, b), 0) << toString(b);
  }
}

TEST(Border, PropertyAlwaysInRange) {
  for (auto b : {BorderType::Replicate, BorderType::Reflect,
                 BorderType::Reflect101, BorderType::Wrap}) {
    for (int len : {1, 2, 3, 7, 10}) {
      for (int p = -25; p <= 25; ++p) {
        const int m = borderInterpolate(p, len, b);
        EXPECT_GE(m, 0) << toString(b) << " len=" << len << " p=" << p;
        EXPECT_LT(m, len) << toString(b) << " len=" << len << " p=" << p;
      }
    }
  }
}

}  // namespace
}  // namespace simdcv::imgproc
