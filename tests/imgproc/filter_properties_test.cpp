// Property tests of the separable filter engine as a linear shift-invariant
// system: impulse response equals the kernel, linearity, shift equivariance,
// DC preservation, separability, and path-independence of all of it.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/array_ops.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/geometry.hpp"
#include "imgproc/kernels.hpp"
#include "simd/caps.hpp"

namespace simdcv::imgproc {
namespace {

Mat randomF32(int rows, int cols, unsigned seed) {
  Mat m(rows, cols, F32C1);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-4.f, 4.f);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) m.at<float>(r, c) = dist(rng);
  return m;
}

TEST(FilterProperties, ImpulseResponseIsTheOuterProductKernel) {
  // Correlation with a centered impulse reproduces the (flipped) kernel;
  // for correlation semantics, dst(y,x) = kx[x-cx+rx] * ky[y-cy+ry] flipped.
  const std::vector<float> kx = {0.1f, 0.2f, 0.7f};  // asymmetric
  const std::vector<float> ky = {0.6f, 0.3f, 0.1f};
  Mat impulse = zeros(9, 9, F32C1);
  impulse.at<float>(4, 4) = 1.0f;
  Mat resp;
  sepFilter2D(impulse, resp, Depth::F32, kx, ky);
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 3; ++i) {
      // Correlation: output at (4 - (j-1), 4 - (i-1)) sees kernel tap (j,i).
      EXPECT_NEAR(resp.at<float>(4 - (j - 1), 4 - (i - 1)),
                  ky[static_cast<std::size_t>(j)] * kx[static_cast<std::size_t>(i)],
                  1e-6)
          << i << "," << j;
    }
  // Everything beyond the support is zero.
  EXPECT_FLOAT_EQ(resp.at<float>(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(resp.at<float>(4, 7), 0.0f);
}

TEST(FilterProperties, Linearity) {
  const Mat a = randomF32(17, 21, 1);
  const Mat b = randomF32(17, 21, 2);
  const auto k = getGaussianKernel(5, 1.1);
  Mat fa, fb, fsum, sum;
  sepFilter2D(a, fa, Depth::F32, k, k);
  sepFilter2D(b, fb, Depth::F32, k, k);
  Mat aplusb;
  core::add(a, b, aplusb);
  sepFilter2D(aplusb, fsum, Depth::F32, k, k);
  core::add(fa, fb, sum);
  EXPECT_LT(maxAbsDiff(fsum, sum), 1e-4);
}

TEST(FilterProperties, ShiftEquivariance) {
  // Filtering commutes with translation (away from borders).
  const Mat a = randomF32(24, 24, 3);
  const auto k = getGaussianKernel(3, 0.9);
  Mat fa;
  sepFilter2D(a, fa, Depth::F32, k, k);
  // Shift right/down by 2 using warpAffine with replicate border.
  AffineMat m = affineIdentity();
  m[2] = -2;
  m[5] = -2;
  Mat shifted, fshifted, faShifted;
  warpAffine(a, shifted, m, {24, 24}, BorderType::Replicate);
  sepFilter2D(shifted, fshifted, Depth::F32, k, k);
  warpAffine(fa, faShifted, m, {24, 24}, BorderType::Replicate);
  for (int r = 4; r < 22; ++r)
    for (int c = 4; c < 22; ++c)
      EXPECT_NEAR(fshifted.at<float>(r, c), faShifted.at<float>(r, c), 1e-4);
}

TEST(FilterProperties, UnitDcGainPreservesConstants) {
  for (int ks : {3, 5, 9}) {
    const auto k = getGaussianKernel(ks, 1.4);
    Mat flat = full(12, 12, F32C1, -7.25);
    Mat out;
    sepFilter2D(flat, out, Depth::F32, k, k);
    for (int r = 0; r < 12; ++r)
      for (int c = 0; c < 12; ++c)
        EXPECT_NEAR(out.at<float>(r, c), -7.25f, 1e-4);
  }
}

TEST(FilterProperties, SeparableEqualsSequentialPasses) {
  // kx then ky as two 1-D passes equals one sepFilter2D call.
  const Mat a = randomF32(19, 23, 4);
  const std::vector<float> kx = {0.25f, 0.5f, 0.25f};
  const std::vector<float> ky = {-0.5f, 1.0f, -0.5f};
  const std::vector<float> id = {1.0f};
  Mat once, rowPass, twoPass;
  sepFilter2D(a, once, Depth::F32, kx, ky);
  sepFilter2D(a, rowPass, Depth::F32, kx, id);
  sepFilter2D(rowPass, twoPass, Depth::F32, id, ky);
  EXPECT_LT(maxAbsDiff(once, twoPass), 1e-4);
}

TEST(FilterProperties, GaussianComposesApproximately) {
  // G(s1) * G(s2) ~ G(sqrt(s1^2+s2^2)) in the interior.
  const Mat a = randomF32(48, 48, 5);
  Mat g1, g12, gBoth;
  GaussianBlur(a, g1, {9, 9}, 1.0);
  GaussianBlur(g1, g12, {9, 9}, 1.0);
  GaussianBlur(a, gBoth, {13, 13}, std::sqrt(2.0));
  double err = 0;
  for (int r = 10; r < 38; ++r)
    for (int c = 10; c < 38; ++c)
      err = std::max(err, static_cast<double>(std::abs(
                              g12.at<float>(r, c) - gBoth.at<float>(r, c))));
  EXPECT_LT(err, 0.05);  // truncation makes this approximate
}

TEST(FilterProperties, AllPropertiesPathIndependent) {
  // The linearity residual is identical on every path (bit-exact engine).
  const Mat a = randomF32(15, 29, 6);
  const auto k = getGaussianKernel(7, 1.3);
  Mat ref;
  sepFilter2D(a, ref, Depth::F32, k, k, BorderType::Reflect101, 0.0,
              KernelPath::Auto);
  for (KernelPath p : caps::availablePaths()) {
    Mat got;
    sepFilter2D(a, got, Depth::F32, k, k, BorderType::Reflect101, 0.0, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
}

TEST(FilterProperties, SobelAnnihilatesConstantsAndActsLinearlyOnRamps) {
  // Derivative kernels: zero response to DC, constant response to ramps,
  // and the response scales with the ramp slope.
  Mat ramp1(16, 16, F32C1), ramp3(16, 16, F32C1);
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 16; ++c) {
      ramp1.at<float>(r, c) = static_cast<float>(c);
      ramp3.at<float>(r, c) = static_cast<float>(3 * c);
    }
  Mat g1, g3;
  Sobel(ramp1, g1, Depth::F32, 1, 0, 3);
  Sobel(ramp3, g3, Depth::F32, 1, 0, 3);
  for (int r = 4; r < 12; ++r)
    for (int c = 4; c < 12; ++c) {
      EXPECT_FLOAT_EQ(g1.at<float>(r, c), 8.0f);
      EXPECT_FLOAT_EQ(g3.at<float>(r, c), 24.0f);
    }
}

}  // namespace
}  // namespace simdcv::imgproc
