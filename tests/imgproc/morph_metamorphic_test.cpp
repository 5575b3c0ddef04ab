// Metamorphic properties of the morphology family (ctest label `morph`).
//
// morphology_test.cpp pins erode/dilate against the brute-force oracle on a
// handful of shapes; this file checks the ALGEBRA — relations that must hold
// for every input and that fail loudly when the separable running-min/max
// engine mishandles a border, a seam re-prime, or one SIMD path:
//
//   duality        erode(x) == 255 - dilate(255 - x)  (min/max are lattice
//                  duals under complement; replicate border is self-dual),
//   idempotence    open(open(x)) == open(x), close(close(x)) == close(x),
//   decomposition  the rect SE factorises: erode_{kw x kh} ==
//                  erode_{1 x kh} ∘ erode_{kw x 1}, checked against the
//                  O(w*h*kw*kh) brute-force oracle,
//   path/thread    every KernelPath and every band partition chosen by the
//                  thread count computes the same function.
#include "imgproc/morphology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "imgproc/border.hpp"
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

Mat complement(const Mat& src) {
  Mat out(src.rows(), src.cols(), U8C1);
  for (int r = 0; r < src.rows(); ++r)
    for (int c = 0; c < src.cols(); ++c)
      out.at<std::uint8_t>(r, c) =
          static_cast<std::uint8_t>(255 - src.at<std::uint8_t>(r, c));
  return out;
}

/// Brute-force oracle: literal window min/max with replicate border,
/// O(w*h*kw*kh) — no running windows, no seams, nothing shared with the
/// engine under test.
Mat bruteMorph(const Mat& src, Size k, bool isMin) {
  Mat out(src.rows(), src.cols(), U8C1);
  const int rx = k.width / 2, ry = k.height / 2;
  for (int y = 0; y < src.rows(); ++y)
    for (int x = 0; x < src.cols(); ++x) {
      int acc = isMin ? 255 : 0;
      for (int dy = -ry; dy <= ry; ++dy)
        for (int dx = -rx; dx <= rx; ++dx) {
          const int sy =
              borderInterpolate(y + dy, src.rows(), BorderType::Replicate);
          const int sx =
              borderInterpolate(x + dx, src.cols(), BorderType::Replicate);
          const int v = src.at<std::uint8_t>(sy, sx);
          acc = isMin ? std::min(acc, v) : std::max(acc, v);
        }
      out.at<std::uint8_t>(y, x) = static_cast<std::uint8_t>(acc);
    }
  return out;
}

const std::vector<Size> kSeSizes = {{1, 3}, {3, 1}, {3, 3}, {5, 3},
                                    {3, 7}, {7, 7}, {9, 1}, {1, 9}};

TEST(MorphMetamorphic, ErodeDilateDualityUnderComplement) {
  const Mat src = randomU8(37, 61, 101);
  const Mat comp = complement(src);
  for (const Size& se : kSeSizes) {
    for (KernelPath p : caps::availablePaths()) {
      Mat er, dilComp;
      erode(src, er, se, p);
      dilate(comp, dilComp, se, p);
      EXPECT_EQ(countMismatches(er, complement(dilComp)), 0u)
          << "erode != ~dilate(~x) se=" << se.width << "x" << se.height
          << " path=" << static_cast<int>(p);

      Mat dil, erComp;
      dilate(src, dil, se, p);
      erode(comp, erComp, se, p);
      EXPECT_EQ(countMismatches(dil, complement(erComp)), 0u)
          << "dilate != ~erode(~x) se=" << se.width << "x" << se.height
          << " path=" << static_cast<int>(p);
    }
  }
}

TEST(MorphMetamorphic, OpenAndCloseAreIdempotent) {
  const Mat src = randomU8(41, 53, 202);
  for (const Size& se : {Size{3, 3}, Size{5, 3}, Size{5, 5}}) {
    for (KernelPath p : caps::availablePaths()) {
      Mat once, twice;
      morphOpen(src, once, se, p);
      morphOpen(once, twice, se, p);
      EXPECT_EQ(countMismatches(once, twice), 0u)
          << "open not idempotent se=" << se.width << "x" << se.height
          << " path=" << static_cast<int>(p);

      morphClose(src, once, se, p);
      morphClose(once, twice, se, p);
      EXPECT_EQ(countMismatches(once, twice), 0u)
          << "close not idempotent se=" << se.width << "x" << se.height
          << " path=" << static_cast<int>(p);
    }
  }
}

// morphOpen / morphClose (a cached two-node graph) are byte-equal to the
// two direct calls they stand for, at odd widths (vector bodies plus scalar
// tails) on every path, also when dst aliases src.
TEST(MorphMetamorphic, OpenAndCloseEqualTheirTwoCalls) {
  for (const int width : {1, 15, 17, 33, 67, 131}) {
    const Mat src = randomU8(23, width, 400u + static_cast<unsigned>(width));
    for (const Size& se : {Size{3, 3}, Size{9, 3}, Size{5, 7}}) {
      for (KernelPath p : caps::availablePaths()) {
        Mat tmp, want, got;
        erode(src, tmp, se, p);
        dilate(tmp, want, se, p);
        morphOpen(src, got, se, p);
        EXPECT_EQ(countMismatches(want, got), 0u)
            << "open w=" << width << " se=" << se.width << "x" << se.height
            << " " << toString(p);
        dilate(src, tmp, se, p);
        erode(tmp, want, se, p);
        morphClose(src, got, se, p);
        EXPECT_EQ(countMismatches(want, got), 0u)
            << "close w=" << width << " se=" << se.width << "x" << se.height
            << " " << toString(p);
        Mat inPlace;
        src.copyTo(inPlace);
        morphClose(inPlace, inPlace, se, p);
        EXPECT_EQ(countMismatches(want, inPlace), 0u)
            << "close in place w=" << width << " " << toString(p);
      }
    }
  }
}

// The separable engine exists because the rect SE factorises into a
// horizontal run and a vertical run. Check the factorisation against the
// 2-D brute-force oracle AND against composing the engine's own 1-D runs —
// both must agree with the full-rect call on every path.
TEST(MorphMetamorphic, RectSeDecomposesIntoHThenVRuns) {
  const Mat src = randomU8(29, 47, 303);
  for (const Size& se : {Size{3, 3}, Size{5, 3}, Size{3, 7}, Size{7, 5}}) {
    for (const bool isMin : {true, false}) {
      const Mat oracle = bruteMorph(src, se, isMin);
      const auto op = isMin ? &erode : &dilate;
      for (KernelPath p : caps::availablePaths()) {
        Mat rect;
        op(src, rect, se, p);
        EXPECT_EQ(countMismatches(rect, oracle), 0u)
            << "rect vs oracle se=" << se.width << "x" << se.height
            << " min=" << isMin << " path=" << static_cast<int>(p);

        Mat hrun, composed;
        op(src, hrun, {se.width, 1}, p);
        op(hrun, composed, {1, se.height}, p);
        EXPECT_EQ(countMismatches(composed, oracle), 0u)
            << "H∘V vs oracle se=" << se.width << "x" << se.height
            << " min=" << isMin << " path=" << static_cast<int>(p);
      }
    }
  }
}

// Narrow/short images where the SE radius reaches across the whole image:
// every window sample comes from the replicate border logic.
TEST(MorphMetamorphic, DegenerateShapesMatchOracle) {
  struct Shape {
    int rows, cols;
    Size se;
  };
  const std::vector<Shape> shapes = {
      {1, 64, {3, 3}}, {64, 1, {3, 3}}, {3, 40, {3, 7}},
      {40, 3, {7, 3}}, {2, 2, {5, 5}},  {7, 33, {9, 1}},
  };
  unsigned seed = 404;
  for (const auto& s : shapes) {
    const Mat src = randomU8(s.rows, s.cols, seed++);
    for (const bool isMin : {true, false}) {
      const Mat oracle = bruteMorph(src, s.se, isMin);
      for (KernelPath p : caps::availablePaths()) {
        Mat out;
        (isMin ? erode : dilate)(src, out, s.se, p);
        EXPECT_EQ(countMismatches(out, oracle), 0u)
            << s.rows << "x" << s.cols << " se=" << s.se.width << "x"
            << s.se.height << " min=" << isMin
            << " path=" << static_cast<int>(p);
      }
    }
  }
}

// Identity and constant-image fixed points: a 1x1 SE is a no-op, and a flat
// image is a fixed point of every operation (min == max == the constant).
TEST(MorphMetamorphic, IdentityAndConstantFixedPoints) {
  const Mat src = randomU8(19, 23, 505);
  Mat flat(16, 16, U8C1);
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 16; ++c) flat.at<std::uint8_t>(r, c) = 137;
  for (KernelPath p : caps::availablePaths()) {
    Mat out;
    erode(src, out, {1, 1}, p);
    EXPECT_EQ(countMismatches(out, src), 0u);
    dilate(src, out, {1, 1}, p);
    EXPECT_EQ(countMismatches(out, src), 0u);
    for (const auto op : {&erode, &dilate, &morphOpen, &morphClose}) {
      op(flat, out, {5, 3}, p);
      EXPECT_EQ(countMismatches(out, flat), 0u);
    }
  }
}

// Band-partition identity: parallel_for splits rows into one band per
// thread, and each band re-primes the running window at its seam. The
// output must not depend on where those seams fall.
// The size makes the band rule split (the grain, 262144 / (517 * (kw + kh))
// rows, is 84 for 3x3 and 42 for 5x7, of 203), and every multi-thread call
// must fork pool tasks, so the ring engine's seam re-prime really runs.
TEST(MorphMetamorphic, ThreadCountDoesNotChangeOutput) {
  const Mat src = randomU8(203, 517, 606);
  const int old = runtime::getNumThreads();
  for (const Size& se : {Size{3, 3}, Size{5, 7}}) {
    for (KernelPath p : caps::availablePaths()) {
      runtime::setNumThreads(1);
      Mat ref;
      erode(src, ref, se, p);
      Mat refD;
      dilate(src, refD, se, p);
      for (int threads : {2, 3, 4}) {
        runtime::setNumThreads(threads);
        Mat out;
        const std::uint64_t tasks0 = runtime::poolStats().tasks_executed;
        erode(src, out, se, p);
        const std::uint64_t tasks1 = runtime::poolStats().tasks_executed;
        EXPECT_EQ(countMismatches(out, ref), 0u)
            << "erode threads=" << threads << " path=" << static_cast<int>(p);
        EXPECT_GT(tasks1, tasks0) << "erode ran as one band";
        dilate(src, out, se, p);
        EXPECT_EQ(countMismatches(out, refD), 0u)
            << "dilate threads=" << threads << " path=" << static_cast<int>(p);
        EXPECT_GT(runtime::poolStats().tasks_executed, tasks1)
            << "dilate ran as one band";
      }
    }
  }
  runtime::setNumThreads(old);
}

}  // namespace
}  // namespace simdcv::imgproc
