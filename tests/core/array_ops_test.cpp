// Array ops: saturation semantics, path agreement, reductions.
#include "core/array_ops.hpp"

#include <gtest/gtest.h>

#include "core/saturate.hpp"
#include "simd/caps.hpp"

#include <cmath>
#include <random>

namespace simdcv::core {
namespace {

std::vector<KernelPath> paths() {
  return {KernelPath::ScalarNoVec, KernelPath::Auto, KernelPath::Sse2,
          KernelPath::Neon};
}

Mat randomMat(Depth d, int rows, int cols, unsigned seed) {
  Mat m(rows, cols, PixelType(d, 1));
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      switch (d) {
        case Depth::U8: m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng()); break;
        case Depth::S16: m.at<std::int16_t>(r, c) = static_cast<std::int16_t>(rng()); break;
        case Depth::F32:
          m.at<float>(r, c) = std::uniform_real_distribution<float>(-1e4f, 1e4f)(rng);
          break;
        default: break;
      }
    }
  return m;
}

using OpFn = void (*)(const Mat&, const Mat&, Mat&, KernelPath);

struct OpCase {
  const char* name;
  OpFn fn;
  Depth depth;
};

// Print a case by its name. gtest's default dump shows the raw bytes, which
// hold code and string addresses that change on every run, so the test names
// that ctest registers would never be the same twice.
void PrintTo(const OpCase& tc, std::ostream* os) { *os << tc.name; }

class ArrayOpPathTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(ArrayOpPathTest, AllPathsBitExact) {
  const auto& tc = GetParam();
  const Mat a = randomMat(tc.depth, 31, 57, 1);  // odd width: vector tails
  const Mat b = randomMat(tc.depth, 31, 57, 2);
  Mat ref;
  tc.fn(a, b, ref, KernelPath::Auto);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    tc.fn(a, b, got, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << tc.name << "/" << toString(p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndDepths, ArrayOpPathTest,
    ::testing::Values(OpCase{"add_u8", &add, Depth::U8},
                      OpCase{"add_s16", &add, Depth::S16},
                      OpCase{"add_f32", &add, Depth::F32},
                      OpCase{"sub_u8", &subtract, Depth::U8},
                      OpCase{"sub_s16", &subtract, Depth::S16},
                      OpCase{"sub_f32", &subtract, Depth::F32},
                      OpCase{"absdiff_u8", &absdiff, Depth::U8},
                      OpCase{"absdiff_s16", &absdiff, Depth::S16},
                      OpCase{"absdiff_f32", &absdiff, Depth::F32},
                      OpCase{"min_u8", &min, Depth::U8},
                      OpCase{"min_f32", &min, Depth::F32},
                      OpCase{"max_u8", &max, Depth::U8},
                      OpCase{"max_s16", &max, Depth::S16},
                      OpCase{"and_u8", &bitwiseAnd, Depth::U8},
                      OpCase{"or_s16", &bitwiseOr, Depth::S16},
                      OpCase{"xor_u8", &bitwiseXor, Depth::U8}),
    [](const auto& info) { return info.param.name; });

TEST(ArrayOps, AddSaturatesU8) {
  Mat a = full(2, 9, U8C1, 200), b = full(2, 9, U8C1, 100), d;
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    add(a, b, d, p);
    EXPECT_EQ(d.at<std::uint8_t>(1, 8), 255) << toString(p);
  }
}

TEST(ArrayOps, SubtractSaturatesU8AtZero) {
  Mat a = full(2, 9, U8C1, 10), b = full(2, 9, U8C1, 100), d;
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    subtract(a, b, d, p);
    EXPECT_EQ(d.at<std::uint8_t>(0, 0), 0) << toString(p);
  }
}

TEST(ArrayOps, AddSaturatesS16BothRails) {
  Mat a = full(1, 17, S16C1, 32000), b = full(1, 17, S16C1, 32000), d;
  add(a, b, d);
  EXPECT_EQ(d.at<std::int16_t>(0, 16), 32767);
  a.setTo(-32000);
  b.setTo(-32000);
  add(a, b, d);
  EXPECT_EQ(d.at<std::int16_t>(0, 0), -32768);
}

TEST(ArrayOps, AbsdiffU8Symmetric) {
  const Mat a = randomMat(Depth::U8, 16, 33, 3);
  const Mat b = randomMat(Depth::U8, 16, 33, 4);
  Mat ab, ba;
  absdiff(a, b, ab);
  absdiff(b, a, ba);
  EXPECT_EQ(countMismatches(ab, ba), 0u);
  Mat self;
  absdiff(a, a, self);
  EXPECT_EQ(countMismatches(self, zeros(16, 33, U8C1)), 0u);
}

TEST(ArrayOps, AbsdiffS16Saturates) {
  Mat a = full(1, 8, S16C1, 32767), b = full(1, 8, S16C1, -32768), d;
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    absdiff(a, b, d, p);
    EXPECT_EQ(d.at<std::int16_t>(0, 0), 32767) << toString(p);  // clamped
  }
}

TEST(ArrayOps, BitwiseIdentities) {
  const Mat a = randomMat(Depth::U8, 8, 21, 5);
  Mat nota, back, x, o;
  bitwiseNot(a, nota);
  bitwiseNot(nota, back);
  EXPECT_EQ(countMismatches(a, back), 0u);
  bitwiseXor(a, a, x);
  EXPECT_EQ(countMismatches(x, zeros(8, 21, U8C1)), 0u);
  bitwiseOr(a, a, o);
  EXPECT_EQ(countMismatches(o, a), 0u);
  Mat f(2, 2, F32C1), d;
  EXPECT_THROW(bitwiseAnd(f, f, d), Error);
  EXPECT_THROW(bitwiseNot(f, d), Error);
}

TEST(ArrayOps, MinMaxComplementary) {
  const Mat a = randomMat(Depth::S16, 12, 19, 6);
  const Mat b = randomMat(Depth::S16, 12, 19, 7);
  Mat lo, hi, sumLoHi, sumAb;
  min(a, b, lo);
  max(a, b, hi);
  // min + max == a + b element-wise (over int, no saturation for these vals).
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c)
      EXPECT_EQ(static_cast<int>(lo.at<std::int16_t>(r, c)) + hi.at<std::int16_t>(r, c),
                static_cast<int>(a.at<std::int16_t>(r, c)) + b.at<std::int16_t>(r, c));
}

TEST(ArrayOps, ScaleAddMatchesConvention) {
  const Mat a = randomMat(Depth::U8, 7, 13, 8);
  Mat d;
  scaleAdd(a, 2.0, -100.0, d);
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c)
      EXPECT_EQ(d.at<std::uint8_t>(r, c),
                saturate_cast<std::uint8_t>(a.at<std::uint8_t>(r, c) * 2.0 - 100.0));
}

TEST(ArrayOps, AddWeightedBlend) {
  Mat a = full(4, 4, U8C1, 100), b = full(4, 4, U8C1, 200), d;
  addWeighted(a, 0.5, b, 0.5, 0.0, d);
  EXPECT_EQ(d.at<std::uint8_t>(0, 0), 150);
  addWeighted(a, 1.0, b, 1.0, 0.0, d);
  EXPECT_EQ(d.at<std::uint8_t>(0, 0), 255);  // saturates
  addWeighted(a, 0.0, b, 0.0, 42.0, d);
  EXPECT_EQ(d.at<std::uint8_t>(0, 0), 42);
}

// addWeighted(a, 1, b, +-1, 0) on u8/s16 runs the hand paths' saturating
// add/sub; at the rails it must still equal the f64 definition clamped. The
// width (3 * 64 + 11) puts rail pairs in whole vectors and in the scalar tail
// at every lane count.
template <typename T>
void expectUnitBlendAtRails(Depth d, T a0, T b0, double beta, T want) {
  const int cols = 3 * 64 + 11;
  Mat a = randomMat(d, 2, cols, 17), b = randomMat(d, 2, cols, 18);
  for (int c = 0; c < cols; ++c) {
    if (c % 5 != 0 && c != cols - 1) continue;
    a.at<T>(1, c) = a0;
    b.at<T>(1, c) = b0;
  }
  for (KernelPath p : caps::availablePaths()) {
    Mat out;
    addWeighted(a, 1.0, b, beta, 0.0, out, p);
    for (int r = 0; r < 2; ++r)
      for (int c = 0; c < cols; ++c)
        ASSERT_EQ(out.at<T>(r, c),
                  saturate_cast<T>(static_cast<double>(a.at<T>(r, c)) * 1.0 +
                                   static_cast<double>(b.at<T>(r, c)) * beta +
                                   0.0))
            << toString(p) << " r=" << r << " c=" << c;
    EXPECT_EQ(out.at<T>(1, cols - 1), want) << toString(p);
    EXPECT_EQ(out.at<T>(1, 0), want) << toString(p);
  }
}

TEST(ArrayOps, AddWeightedUnitBlendSaturatesAtRails) {
  expectUnitBlendAtRails<std::uint8_t>(Depth::U8, 0, 255, -1.0, 0);
  expectUnitBlendAtRails<std::uint8_t>(Depth::U8, 255, 255, 1.0, 255);
  expectUnitBlendAtRails<std::int16_t>(Depth::S16, -32768, 32767, -1.0, -32768);
  expectUnitBlendAtRails<std::int16_t>(Depth::S16, 32767, 1, 1.0, 32767);
}

TEST(ArrayOps, GeometryMismatchThrows) {
  Mat a(4, 4, U8C1), b(4, 5, U8C1), c(4, 4, S16C1), d;
  EXPECT_THROW(add(a, b, d), Error);
  EXPECT_THROW(add(a, c, d), Error);
  Mat empty;
  EXPECT_THROW(add(empty, empty, d), Error);
}

TEST(ArrayOps, SumMatchesManual) {
  const Mat a = randomMat(Depth::U8, 33, 61, 9);
  double manual = 0;
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c) manual += a.at<std::uint8_t>(r, c);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    EXPECT_DOUBLE_EQ(sum(a, p), manual) << toString(p);  // integers: exact
  }
}

TEST(ArrayOps, SumF32WithinTolerance) {
  const Mat a = randomMat(Depth::F32, 30, 40, 10);
  double manual = 0;
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c) manual += static_cast<double>(a.at<float>(r, c));
  EXPECT_NEAR(sum(a), manual, std::abs(manual) * 1e-6 + 1e-3);
}

TEST(ArrayOps, MeanOfConstant) {
  EXPECT_DOUBLE_EQ(mean(full(10, 10, U8C1, 77)), 77.0);
  EXPECT_DOUBLE_EQ(mean(full(3, 3, F32C1, -2.5)), -2.5);
}

TEST(ArrayOps, MinMaxLoc) {
  Mat a = full(8, 8, S16C1, 5);
  a.at<std::int16_t>(2, 3) = -100;
  a.at<std::int16_t>(6, 1) = 200;
  const auto r = minMaxLoc(a);
  EXPECT_EQ(r.min_val, -100);
  EXPECT_EQ(r.min_row, 2);
  EXPECT_EQ(r.min_col, 3);
  EXPECT_EQ(r.max_val, 200);
  EXPECT_EQ(r.max_row, 6);
  EXPECT_EQ(r.max_col, 1);
}

TEST(ArrayOps, MinMaxLocFirstOccurrenceWins) {
  Mat a = zeros(4, 4, U8C1);
  a.at<std::uint8_t>(1, 1) = 9;
  a.at<std::uint8_t>(2, 2) = 9;
  const auto r = minMaxLoc(a);
  EXPECT_EQ(r.max_row, 1);
  EXPECT_EQ(r.max_col, 1);
  EXPECT_EQ(r.min_row, 0);
  EXPECT_EQ(r.min_col, 0);
}

TEST(ArrayOps, WorksOnRoiViews) {
  Mat big = randomMat(Depth::U8, 32, 32, 11);
  Mat a = big.roi({1, 1, 15, 17});
  Mat b = big.roi({16, 10, 15, 17});
  Mat ref, got;
  add(a.clone(), b.clone(), ref);
  add(a, b, got, KernelPath::Sse2);
  EXPECT_EQ(countMismatches(ref, got), 0u);
  EXPECT_DOUBLE_EQ(sum(a), sum(a.clone()));
}

TEST(ArrayOps, MultiChannelElementwise) {
  Mat a = full(4, 4, U8C3, 100), b = full(4, 4, U8C3, 200), d;
  add(a, b, d);
  ASSERT_EQ(d.channels(), 3);
  EXPECT_EQ(d.at<std::uint8_t>(3, 11), 255);
}

}  // namespace
}  // namespace simdcv::core
