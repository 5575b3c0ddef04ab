// Fixed-point tier tests (ctest label `fixedpt`): the cross-path x thread x
// band-partition identity matrix for the 8U/16S kernels, the analytic
// accuracy contracts against the float engine, argument validation, and the
// tolerance-mode negative control — a seeded +/-2 LSB fault that the
// MaxAbsLsb(1) checker MUST catch (proof the tolerance policy rejects, not
// just admits; DESIGN.md section 14).
#include "imgproc/fixedpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "graph/graph.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/kernels.hpp"
#include "runtime/thread_pool.hpp"
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

/// Restores the ambient thread count when a test returns or fails.
struct ThreadScope {
  int old = runtime::getNumThreads();
  ~ThreadScope() { runtime::setNumThreads(old); }
};

// ---- quantization contract -------------------------------------------------

TEST(FixedPoint, QuantizedTapsSumToExactly256) {
  for (const auto& [ksize, sigma] :
       {std::pair{3, 0.8}, {5, 1.2}, {7, 1.8}, {9, 2.5}, {5, 0.3}}) {
    const auto q = quantizeKernelQ8(getGaussianKernel(ksize, sigma));
    int sum = 0;
    for (auto t : q) sum += t;
    EXPECT_EQ(sum, 256) << "ksize=" << ksize << " sigma=" << sigma;
  }
  // A near-delta kernel quantizes to a single center tap of 256 — the case
  // that forces u16 taps (256 does not fit u8).
  const auto delta = quantizeKernelQ8(getGaussianKernel(3, 0.01));
  ASSERT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta[1], 256);
  EXPECT_EQ(delta[0] + delta[2], 0);
}

// ---- accuracy contracts vs the float engine --------------------------------

// Gaussian: within +/-1 LSB of the float engine run with the SAME quantized
// taps (each requantization stage contributes <= 0.5 LSB; the bound is
// analytic, see fixedpoint.hpp).
TEST(FixedPoint, GaussianWithin1LsbOfFloatOnQuantizedTaps) {
  const Mat src = randomU8(63, 97, 11);
  for (const auto& [ksize, sigma] : {std::pair{3, 0.8}, {5, 1.2}, {7, 1.9}}) {
    const auto q = quantizeKernelQ8(getGaussianKernel(ksize, sigma));
    std::vector<float> fk(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) fk[i] = q[i] / 256.0f;
    for (const auto border :
         {BorderType::Reflect101, BorderType::Replicate, BorderType::Constant}) {
      Mat fl, fx;
      sepFilter2D(src, fl, Depth::U8, fk, fk, border, 40.0);
      sepFilter2DFxU8(src, fx, q, q, border, 40);
      EXPECT_EQ(countMismatches(fl, fx, 1.0), 0u)
          << "ksize=" << ksize << " border=" << static_cast<int>(border);
      // Non-vacuity control (deterministic: fixed seed): the double
      // requantization really does diverge somewhere, so the +/-1 LSB
      // tolerance is load-bearing, not slack.
      EXPECT_GT(countMismatches(fl, fx, 0.0), 0u)
          << "fx bit-identical to float everywhere — tolerance is vacuous?";
    }
  }
}

// Sobel: BIT-exact with the float engine — every intermediate is an integer
// below 2^24, exactly representable in float32.
TEST(FixedPoint, SobelBitExactWithFloatEngine) {
  const Mat src = randomU8(57, 89, 22);
  struct Deriv {
    int dx, dy, ksize;
  };
  for (const auto& d : {Deriv{1, 0, 3}, {0, 1, 3}, {1, 1, 3}, {1, 0, 5},
                        {0, 1, 5}, {2, 0, 3}}) {
    for (const auto border : {BorderType::Reflect101, BorderType::Replicate}) {
      Mat fl, fx;
      Sobel(src, fl, Depth::S16, d.dx, d.dy, d.ksize, 1.0, border);
      SobelFx(src, fx, d.dx, d.dy, d.ksize, border);
      EXPECT_EQ(countMismatches(fl, fx), 0u)
          << "dx=" << d.dx << " dy=" << d.dy << " ksize=" << d.ksize;
    }
  }
}

// ---- worker width sweep ----------------------------------------------------

// The blocked row/col bodies against the scalar-novec arm at every width
// 1..4*64+3: the 4-vector main loop, the narrower loop and the scalar tail
// at every lane count (4L-1, 4L, 4L+1 for L = 4, 8, 16 and the s16 lane
// counts). Taps are asymmetric with negative entries (wrapped for the u16
// taps); the sums are modular, so the outputs are byte-equal regardless of
// the engine's wrap-free bounds.
TEST(FixedPoint, WorkerWidthSweepByteEqualToNovec) {
  constexpr int kMaxWidth = 4 * 64 + 3;
  constexpr int kMaxK = 15;
  constexpr std::size_t kStride = kMaxWidth + kMaxK;
  std::mt19937 rng(61);
  std::vector<std::uint8_t> u8(kMaxK * kStride);
  std::vector<std::int16_t> s16(kMaxK * kStride);
  for (auto& v : u8) v = static_cast<std::uint8_t>(rng());
  for (auto& v : s16) v = static_cast<std::int16_t>(rng());
  std::vector<const std::uint8_t*> u8Rows;
  std::vector<const std::int16_t*> s16Rows;
  for (std::size_t r = 0; r < kMaxK; ++r) {
    u8Rows.push_back(u8.data() + r * kStride);
    s16Rows.push_back(s16.data() + r * kStride);
  }
  const KernelPath ref = KernelPath::ScalarNoVec;
  for (int ksize : {1, 3, 5, 7, 9, 15}) {
    std::vector<std::int16_t> ks(static_cast<std::size_t>(ksize));
    std::vector<std::uint16_t> ku(ks.size());
    for (int j = 0; j < ksize; ++j) {
      ks[static_cast<std::size_t>(j)] =
          static_cast<std::int16_t>((j % 2 ? -3 : 5) * (j + 1));
      ku[static_cast<std::size_t>(j)] =
          static_cast<std::uint16_t>(ks[static_cast<std::size_t>(j)]);
    }
    for (KernelPath p : caps::availablePaths()) {
      for (int width = 1; width <= kMaxWidth; ++width) {
        const auto n = static_cast<std::size_t>(width);
        const auto where = [&](const char* fn) {
          return std::string(fn) + " " + toString(p) +
                 " ksize=" + std::to_string(ksize) +
                 " width=" + std::to_string(width);
        };
        std::vector<std::uint8_t> wantU8(n), gotU8(n, 0xa5);
        detail::fxRowU8For(ref)(u8Rows[0], wantU8.data(), width, ku.data(), ksize);
        detail::fxRowU8For(p)(u8Rows[0], gotU8.data(), width, ku.data(), ksize);
        ASSERT_EQ(wantU8, gotU8) << where("rowConvU8");
        std::fill(gotU8.begin(), gotU8.end(), 0xa5);
        detail::fxColU8For(ref)(u8Rows.data(), wantU8.data(), width, ku.data(),
                                ksize);
        detail::fxColU8For(p)(u8Rows.data(), gotU8.data(), width, ku.data(), ksize);
        ASSERT_EQ(wantU8, gotU8) << where("colConvU8");
        std::vector<std::int16_t> wantS16(n), gotS16(n, 0x5a5a);
        detail::fxRowS16For(ref)(u8Rows[0], wantS16.data(), width, ks.data(),
                                 ksize);
        detail::fxRowS16For(p)(u8Rows[0], gotS16.data(), width, ks.data(), ksize);
        ASSERT_EQ(wantS16, gotS16) << where("rowConvS16");
        std::fill(gotS16.begin(), gotS16.end(), 0x5a5a);
        detail::fxColS16For(ref)(s16Rows.data(), wantS16.data(), width,
                                 ks.data(), ksize);
        detail::fxColS16For(p)(s16Rows.data(), gotS16.data(), width, ks.data(),
                               ksize);
        ASSERT_EQ(wantS16, gotS16) << where("colConvS16");
      }
    }
  }
}

// ---- 3-tap shapes of the s16 passes ---------------------------------------

// The two 3-tap shapes the s16 passes specialize (Sobel's [-1,0,1] and
// [1,2,1]) and the kernels that must take the general body (other
// antisymmetric and symmetric taps, and near-misses), on every path
// against the scalar-novec arm at every width 0..4*32+1, which crosses
// every vector multiple of every backend up to its 4-vector block plus one.
// Inputs are random over the full u8 / s16 range, so the sums wrap: the
// shapes regroup modular sums, which is exact.
TEST(FixedPoint, TapShapesByteEqualToNovecAtEveryWidth) {
  constexpr int kMaxWidth = 4 * 32 + 1;
  const std::vector<std::vector<std::int16_t>> kernels = {
      // [-a, 0, a]
      {-1, 0, 1}, {-2, 0, 2}, {-3, 0, 3}, {1, 0, -1}, {-32768 + 1, 0, 32767},
      // [a, b, a]
      {1, 2, 1}, {1, 1, 1}, {1, -2, 1}, {1, 0, 1}, {2, 1, 2}, {2, 2, 2},
      {2, -7, 2}, {3, 10, 3}, {3, 1, 3}, {3, 2, 3}, {-1, -2, -1},
      // near-misses: the general body
      {-1, 0, 2}, {1, 2, 2}, {0, 0, 0}, {0, 1, 0}, {-1, 1, 1}, {2, 0, -1}};
  std::mt19937 rng(25);
  std::vector<std::uint8_t> u8(kMaxWidth + 2);
  std::vector<std::int16_t> s16[3];
  for (auto& v : u8) v = static_cast<std::uint8_t>(rng());
  for (auto& row : s16) {
    row.resize(kMaxWidth);
    for (auto& v : row) v = static_cast<std::int16_t>(rng());
  }
  const std::int16_t* rows[3] = {s16[0].data(), s16[1].data(), s16[2].data()};
  for (KernelPath p : caps::availablePaths()) {
    for (const auto& k : kernels) {
      for (int width = 0; width <= kMaxWidth; ++width) {
        const auto n = static_cast<std::size_t>(width);
        const auto where = [&](const char* fn) {
          return std::string(fn) + " " + toString(p) + " k=[" +
                 std::to_string(k[0]) + "," + std::to_string(k[1]) + "," +
                 std::to_string(k[2]) + "] width=" + std::to_string(width);
        };
        std::vector<std::int16_t> want(n), got(n, 0x5a5a);
        detail::fxRowS16For(KernelPath::ScalarNoVec)(u8.data(), want.data(),
                                                     width, k.data(), 3);
        detail::fxRowS16For(p)(u8.data(), got.data(), width, k.data(), 3);
        ASSERT_EQ(want, got) << where("rowConvS16");
        std::fill(got.begin(), got.end(), 0x5a5a);
        detail::fxColS16For(KernelPath::ScalarNoVec)(rows, want.data(), width,
                                                     k.data(), 3);
        detail::fxColS16For(p)(rows, got.data(), width, k.data(), 3);
        ASSERT_EQ(want, got) << where("colConvS16");
      }
    }
  }
}

// The wrap-free extremes of [1,2,1] x [-1,0,1]: stripes two pixels wide of
// 0 and 255 put a full-scale step under every derivative window, so the
// result reaches +-4*255 = +-1020 (the engine's bound holds with room).
// Both orientations (alternating column pairs under dx, alternating row
// pairs under dy), every border, byte-equal to scalar-novec on every path.
TEST(FixedPoint, SobelShapesAtWrapFreeExtremes) {
  for (const bool rowsAlternate : {false, true}) {
    Mat src(37, 141, U8C1);
    for (int r = 0; r < src.rows(); ++r)
      for (int c = 0; c < src.cols(); ++c)
        src.at<std::uint8_t>(r, c) = ((rowsAlternate ? r : c) / 2) % 2 ? 255 : 0;
    const int dx = rowsAlternate ? 0 : 1, dy = 1 - dx;
    for (const auto border :
         {BorderType::Reflect101, BorderType::Replicate, BorderType::Constant}) {
      Mat want;
      SobelFx(src, want, dx, dy, 3, border, KernelPath::ScalarNoVec);
      int lo = 0, hi = 0;
      for (int r = 0; r < want.rows(); ++r)
        for (int c = 0; c < want.cols(); ++c) {
          lo = std::min<int>(lo, want.at<std::int16_t>(r, c));
          hi = std::max<int>(hi, want.at<std::int16_t>(r, c));
        }
      EXPECT_EQ(lo, -1020);
      EXPECT_EQ(hi, 1020);
      for (KernelPath p : caps::availablePaths()) {
        Mat got;
        SobelFx(src, got, dx, dy, 3, border, p);
        EXPECT_EQ(countMismatches(want, got), 0u)
            << toString(p) << " rowsAlternate=" << rowsAlternate
            << " border=" << static_cast<int>(border);
      }
    }
  }
}

// ---- cross-path x thread x band identity matrix ----------------------------

// Every KernelPath, every thread count (hence every row-band partition the
// pool chooses), every border mode (Constant with a nonzero value):
// bit-identical to the single-threaded scalar-novec walk. Shapes include
// 1-row and prime-width mats so the SIMD tails get exercised, and one shape
// large enough that the band rule splits; there every multi-thread call must
// fork pool tasks, so the ring engine's seam re-prime really runs.
TEST(FixedPoint, CrossPathThreadBandIdentityMatrix) {
  ThreadScope scope;
  struct Shape {
    int rows, cols;
    bool forks;
  };
  const std::vector<Shape> shapes = {{61, 83, false},
                                     {1, 129, false},
                                     {16, 16, false},
                                     {37, 251, false},
                                     {203, 517, true}};
  const auto qx = quantizeKernelQ8(getGaussianKernel(5, 1.2));
  const auto qy = quantizeKernelQ8(getGaussianKernel(3, 0.9));
  const std::vector<std::int16_t> dx = {-1, 0, 1}, sy = {1, 2, 1};
  unsigned seed = 33;
  for (const auto& s : shapes) {
    const Mat src = randomU8(s.rows, s.cols, seed++);
    for (const auto border :
         {BorderType::Reflect101, BorderType::Replicate, BorderType::Reflect,
          BorderType::Constant, BorderType::Wrap}) {
      runtime::setNumThreads(1);
      Mat refU8, refS16;
      sepFilter2DFxU8(src, refU8, qx, qy, border, 7, KernelPath::ScalarNoVec);
      sepFilter2DFxS16(src, refS16, dx, sy, border, 7,
                       KernelPath::ScalarNoVec);
      for (KernelPath p : caps::availablePaths()) {
        for (int threads : {1, 2, 4}) {
          runtime::setNumThreads(threads);
          Mat outU8, outS16;
          const std::uint64_t tasks0 = runtime::poolStats().tasks_executed;
          sepFilter2DFxU8(src, outU8, qx, qy, border, 7, p);
          const std::uint64_t tasks1 = runtime::poolStats().tasks_executed;
          EXPECT_EQ(countMismatches(outU8, refU8), 0u)
              << s.rows << "x" << s.cols << " path=" << static_cast<int>(p)
              << " threads=" << threads << " border=" << static_cast<int>(border);
          sepFilter2DFxS16(src, outS16, dx, sy, border, 7, p);
          EXPECT_EQ(countMismatches(outS16, refS16), 0u)
              << s.rows << "x" << s.cols << " path=" << static_cast<int>(p)
              << " threads=" << threads << " border=" << static_cast<int>(border);
          if (s.forks && threads > 1) {
            EXPECT_GT(tasks1, tasks0) << "u8 engine ran as one band";
            EXPECT_GT(runtime::poolStats().tasks_executed, tasks1)
                << "s16 engine ran as one band";
          }
        }
      }
    }
  }
}

// Forced band partitions through the graph fused executor: the fx nodes'
// window rings re-prime at every band seam, and the seam position must be
// invisible in the output.
TEST(FixedPoint, GraphBandPartitionIdentity) {
  const Mat src = randomU8(73, 111, 44);
  const graph::Graph g =
      graph::makeFxEdgeGraph(5, 1.2, 3, 80.0, BorderType::Reflect101);
  Mat ref;
  g.runStaged(src, ref, KernelPath::ScalarNoVec);
  for (KernelPath p : caps::availablePaths()) {
    for (int band : {1, 3, 16, 72}) {
      Mat out;
      graph::detail::runFusedBanded(g, src, out, p, band);
      EXPECT_EQ(countMismatches(out, ref), 0u)
          << "path=" << static_cast<int>(p) << " band=" << band;
    }
  }
}

// ---- validation ------------------------------------------------------------

TEST(FixedPoint, ValidationRejectsContractViolations) {
  const Mat src = randomU8(16, 16, 55);
  Mat dst;
  // Taps must sum to exactly 256 (the wrap-free accumulator bound).
  EXPECT_THROW(sepFilter2DFxU8(src, dst, {64, 128, 63}, {64, 128, 64}), Error);
  EXPECT_THROW(sepFilter2DFxU8(src, dst, {64, 129, 64}, {64, 128, 64}), Error);
  // s16 taps must satisfy 255 * sum|kx| * sum|ky| <= 32767.
  EXPECT_THROW(sepFilter2DFxS16(src, dst, {100, 0, -100}, {1, 2, 1}), Error);
  // Aperture 7 Sobel breaks the 16-bit accumulator bound.
  EXPECT_THROW(SobelFx(src, dst, 1, 0, 7), Error);
  // Even kernel sizes have no center tap.
  EXPECT_THROW(GaussianBlurFx(src, dst, {4, 4}, 1.0), Error);
  // The integer tier is U8C1-only.
  Mat f(8, 8, F32C1);
  EXPECT_THROW(GaussianBlurFx(f, dst, {3, 3}, 1.0), Error);
}

// ---- tolerance-mode negative control ---------------------------------------

// A checker that only admits can't reject; prove this one rejects. The fake
// kernel runs the real fixed-point Gaussian, then seeds a +/-2 LSB fault
// into one pixel on the non-reference paths. MaxAbsLsb(1) must flag it
// (2 > 1), and Exact must flag even a 1-LSB seed.
check::KernelCheck seededFaultKernel(int lsb) {
  return {"fake.fx-fault",
          [lsb](const check::CaseSpec& c, KernelPath p) {
            Mat src = check::genMat(c, 1, U8C1);
            Mat dst;
            GaussianBlurFx(src, dst, {5, 5}, 1.2, 1.2,
                           BorderType::Reflect101, KernelPath::ScalarNoVec);
            if (p != KernelPath::ScalarNoVec) {
              auto& px = dst.at<std::uint8_t>(dst.rows() / 2, dst.cols() / 2);
              px = static_cast<std::uint8_t>(px >= 128 ? px - lsb : px + lsb);
            }
            return dst;
          },
          check::Tolerance::MaxAbsLsb(1)};
}

TEST(FixedPoint, ToleranceNegativeControlCatchesTwoLsbFault) {
  check::CaseSpec c;
  c.seed = 66;
  c.rows = 31;
  c.cols = 47;
  // +/-2 LSB: outside MaxAbsLsb(1) — every non-reference path must fail.
  const auto caught =
      check::checkCase(seededFaultKernel(2), c, 2, check::Tolerance::MaxAbsLsb(1));
  ASSERT_FALSE(caught.empty());
  for (const auto& f : caught) {
    EXPECT_EQ(f.max_abs_diff, 2.0);
    EXPECT_GE(f.mismatches, 1u);
  }
  // +/-1 LSB: admitted by MaxAbsLsb(1)...
  EXPECT_TRUE(
      check::checkCase(seededFaultKernel(1), c, 2, check::Tolerance::MaxAbsLsb(1))
          .empty());
  // ...but Exact still rejects it — the tolerance is per-kernel policy, not
  // checker slack.
  EXPECT_FALSE(
      check::checkCase(seededFaultKernel(1), c, 2, check::Tolerance::Exact())
          .empty());
}

// countMismatches is the comparator under all of this; pin its tolerance
// semantics at the boundary (<= admits, strict > rejects).
TEST(FixedPoint, CountMismatchesToleranceBoundary) {
  Mat a(1, 4, U8C1), b(1, 4, U8C1);
  for (int i = 0; i < 4; ++i) a.at<std::uint8_t>(0, i) = 100;
  b.at<std::uint8_t>(0, 0) = 100;  // equal
  b.at<std::uint8_t>(0, 1) = 101;  // +1: inside MaxAbsLsb(1)
  b.at<std::uint8_t>(0, 2) = 99;   // -1: inside
  b.at<std::uint8_t>(0, 3) = 102;  // +2: outside
  EXPECT_EQ(countMismatches(a, b, 0.0), 3u);
  EXPECT_EQ(countMismatches(a, b, 1.0), 1u);
  EXPECT_EQ(countMismatches(a, b, 2.0), 0u);
}

}  // namespace
}  // namespace simdcv::imgproc
