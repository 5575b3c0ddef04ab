// Exhaustive u8 tables for the double-precision affine kernels: every
// (a, b) pair of addWeighted and every a of scaleAdd / scaled convertTo,
// on every selectable path, against the ScalarNoVec reference. The
// coefficient sets are the ones whose rounding is easiest to get wrong in
// f64 lanes: exact half-way ties (0.5 weights), the integer morphological
// gradient blend (1, -1, 0), an inexact third, and NaN / Inf / huge
// coefficients that exercise the NaN -> 0 and s32-rail saturation. A last
// test pins the scalar evaluation order and the absence of FMA with inputs
// whose ties only that order resolves.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "check/check.hpp"
#include "core/array_ops.hpp"
#include "core/convert.hpp"
#include "core/mat.hpp"

namespace simdcv {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Coefs {
  double alpha, beta, gamma;
};

const Coefs kCoefs[] = {
    {1.0, -1.0, 0.0},             // morphgrad: hi - lo
    {1.4, -0.4, 0.0},             // photo-style unsharp blend
    {0.5, 0.5, 0.0},              // ties whenever a + b is odd
    {0.5, -0.5, 0.5},             // ties on both signs
    {1.0 / 3, 1.0 / 3, 1.0 / 3},  // inexact weights
    {-1.0, 0.0, 255.0},           // inversion
    {kNaN, 1.0, 0.0},             // NaN everywhere -> 0
    {kInf, -1.0, 0.0},            // Inf * 0 = NaN at a == 0, +Inf elsewhere
    {1e10, -1e10, 0.5},           // past the s32 rails both ways
    {0.0, 0.0, 2147483648.0},     // gamma at the rail
};

// 256 x 256: a = column, b = row, so the two Mats enumerate all 65536 pairs.
void pairTables(Mat& a, Mat& b) {
  a = Mat(256, 256, U8C1);
  b = Mat(256, 256, U8C1);
  for (int r = 0; r < 256; ++r) {
    for (int c = 0; c < 256; ++c) {
      a.ptr<std::uint8_t>(r)[c] = static_cast<std::uint8_t>(c);
      b.ptr<std::uint8_t>(r)[c] = static_cast<std::uint8_t>(r);
    }
  }
}

std::string describe(const Coefs& k) {
  return "alpha=" + std::to_string(k.alpha) + " beta=" + std::to_string(k.beta) +
         " gamma=" + std::to_string(k.gamma);
}

TEST(AffineExhaustive, AddWeightedU8AllPairsEveryPath) {
  Mat a, b;
  pairTables(a, b);
  for (const Coefs& k : kCoefs) {
    Mat ref;
    core::addWeighted(a, k.alpha, b, k.beta, k.gamma, ref, KernelPath::ScalarNoVec);
    for (KernelPath p : check::availablePaths()) {
      Mat out;
      core::addWeighted(a, k.alpha, b, k.beta, k.gamma, out, p);
      EXPECT_EQ(countMismatches(ref, out), 0u)
          << toString(p) << " " << describe(k);
    }
  }
}

TEST(AffineExhaustive, MorphGradientBlendIsSaturatedDifference) {
  Mat a, b;
  pairTables(a, b);
  for (KernelPath p : check::availablePaths()) {
    Mat out;
    core::addWeighted(a, 1.0, b, -1.0, 0.0, out, p);
    for (int r = 0; r < 256; ++r) {
      for (int c = 0; c < 256; ++c) {
        ASSERT_EQ(out.ptr<std::uint8_t>(r)[c], c > r ? c - r : 0)
            << toString(p) << " a=" << c << " b=" << r;
      }
    }
  }
}

// Every u8 value, repeated past the widest vector so the SIMD body and the
// scalar tail both see it, through scaleAdd and each scaled convertTo
// destination the hand arm serves.
TEST(AffineExhaustive, ScaledU8EveryValueEveryPath) {
  Mat a(3, 256 + 67, U8C1);
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c)
      a.ptr<std::uint8_t>(r)[c] = static_cast<std::uint8_t>(c + r);
  for (const Coefs& k : kCoefs) {
    Mat refScale;
    core::scaleAdd(a, k.alpha, k.gamma, refScale, KernelPath::ScalarNoVec);
    for (KernelPath p : check::availablePaths()) {
      Mat out;
      core::scaleAdd(a, k.alpha, k.gamma, out, p);
      EXPECT_EQ(countMismatches(refScale, out), 0u)
          << "scaleAdd " << toString(p) << " " << describe(k);
    }
    for (Depth dd : {Depth::U8, Depth::S16, Depth::F32}) {
      Mat ref;
      core::convertTo(a, ref, dd, k.alpha, k.gamma, KernelPath::ScalarNoVec);
      for (KernelPath p : check::availablePaths()) {
        Mat out;
        core::convertTo(a, out, dd, k.alpha, k.gamma, p);
        EXPECT_EQ(countMismatches(ref, out), 0u)
            << "convertTo->" << toString(dd) << " " << toString(p) << " "
            << describe(k);
      }
    }
  }
}

// Inputs that sit on a rounding tie which only the scalar loop's evaluation
// order, (a*alpha + b*beta) + gamma with no fused multiply-add, resolves to
// the expected value. Random coefficients almost never land on one.
template <typename T>
Mat filled(Depth d, T v) {
  Mat m(3, 67, PixelType(d, 1));  // several vectors per row plus a tail
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c) m.ptr<T>(r)[c] = v;
  return m;
}

template <typename T>
void expectAll(const Mat& m, T want, const char* what, KernelPath p) {
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      ASSERT_EQ(m.ptr<T>(r)[c], want) << what << " " << toString(p) << " at "
                                      << r << "," << c;
}

TEST(AffineOrder, ScalarOrderAndNoContractionOnEveryPath) {
  const double t23 = 0x1p-23, t30 = 0x1p-30;
  const float x = static_cast<float>(1.0 + t23);
  // (1 + 2^-23)(1 + 2^-30) rounds half-even to 1 + 2^-23 + 2^-30, so adding
  // its negation gives exactly 0; a fused multiply-add leaves 2^-53.
  const double alpha = 1.0 + t30, cancel = -(1.0 + t23 + t30);
  const Mat fx = filled<float>(Depth::F32, x);
  const Mat f1 = filled<float>(Depth::F32, 1.0f);
  const Mat u1 = filled<std::uint8_t>(Depth::U8, 1);
  for (KernelPath p : check::availablePaths()) {
    Mat out;
    core::convertTo(fx, out, Depth::F32, alpha, cancel, p);
    expectAll(out, 0.0f, "convertTo unfused", p);
    core::scaleAdd(fx, alpha, cancel, out, p);
    expectAll(out, 0.0f, "scaleAdd unfused", p);
    core::addWeighted(fx, alpha, f1, cancel, 0.0, out, p);
    expectAll(out, 0.0f, "addWeighted unfused", p);
    // 0.5 + 2^-54 + 2^-54 is 0.5 left to right (each add is a tie to
    // even), which rounds to 0; grouping b*beta + gamma first gives
    // 0.5 + 2^-53, which rounds to 1.
    core::addWeighted(u1, 0.5, u1, 0x1p-54, 0x1p-54, out, p);
    expectAll(out, std::uint8_t{0}, "addWeighted u8 order", p);
    // Likewise at the f32 tie 1 + 2^-24: left to right stays on the tie
    // and rounds to 1.0f; the other grouping rounds up.
    core::addWeighted(f1, 1.0 + 0x1p-24, f1, 0x1p-53, 0x1p-53, out, p);
    expectAll(out, 1.0f, "addWeighted f32 order", p);
  }
}

}  // namespace
}  // namespace simdcv
