// Determinism guarantee of band-parallel execution: for every paper kernel
// (convert, threshold, Gaussian, Sobel, edge) and every available KernelPath,
// the 4-thread output is bit-identical to the 1-thread output, including on
// degenerate and odd sizes that stress band-boundary handling.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/array_ops.hpp"
#include "core/convert.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/threshold.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "simd/caps.hpp"

namespace simdcv {
namespace {

constexpr int kThreads = 4;

const std::vector<Size>& testSizes() {
  static const std::vector<Size> s = {
      {1, 1}, {5, 3}, {64, 64}, {479, 641}, {641, 479}};
  return s;
}

Mat randomMat(int rows, int cols, PixelType type, unsigned seed) {
  Mat m(rows, cols, type);
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r) {
    auto* p = m.ptr<std::uint8_t>(r);
    const std::size_t bytes =
        static_cast<std::size_t>(cols) * type.elemSize();
    for (std::size_t i = 0; i < bytes; ++i)
      p[i] = static_cast<std::uint8_t>(rng() & 0xff);
  }
  if (m.depth() == Depth::F32) {
    // Re-fill floats from a bounded distribution so no NaN/Inf bit patterns
    // make comparisons vacuous.
    std::uniform_real_distribution<float> dist(-4000.0f, 4000.0f);
    for (int r = 0; r < rows; ++r) {
      float* p = m.ptr<float>(r);
      for (int c = 0; c < cols * m.channels(); ++c) p[c] = dist(rng);
    }
  }
  return m;
}

void expectBitIdentical(const Mat& a, const Mat& b, const char* what,
                        KernelPath path, Size size) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.type(), b.type());
  const std::size_t rowBytes =
      static_cast<std::size_t>(a.cols()) * a.type().elemSize();
  for (int r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(std::memcmp(a.ptr<std::uint8_t>(r), b.ptr<std::uint8_t>(r),
                          rowBytes),
              0)
        << what << " path=" << toString(path) << " size=" << size.width << "x"
        << size.height << " first differing row " << r;
  }
}

/// Run `op` (which writes its output Mat) at 1 thread and at kThreads and
/// compare the outputs byte for byte. Returns how many pool tasks the
/// kThreads run forked (0: it ran as one band).
template <typename Op>
std::uint64_t check1vsN(const char* what, KernelPath path, Size size,
                        const Op& op) {
  runtime::setNumThreads(1);
  Mat serial;
  op(serial);
  runtime::setNumThreads(kThreads);
  Mat banded;
  const std::uint64_t tasks0 = runtime::poolStats().tasks_executed;
  op(banded);
  const std::uint64_t forked = runtime::poolStats().tasks_executed - tasks0;
  runtime::setNumThreads(1);
  expectBitIdentical(serial, banded, what, path, size);
  return forked;
}

class ParallelEquivalence : public ::testing::Test {
 protected:
  void TearDown() override {
    runtime::setNumThreads(1);
    runtime::shutdownPool();
  }
};

TEST_F(ParallelEquivalence, ThresholdAllDepths) {
  for (KernelPath path : caps::availablePaths()) {
    for (Size size : testSizes()) {
      const Mat u8 = randomMat(size.height, size.width, U8C1, 11);
      check1vsN("threshold-u8", path, size, [&](Mat& out) {
        imgproc::threshold(u8, out, 128.0, 255.0,
                           imgproc::ThresholdType::Binary, path);
      });
      const Mat s16 = randomMat(size.height, size.width,
                                PixelType(Depth::S16, 1), 12);
      check1vsN("threshold-s16", path, size, [&](Mat& out) {
        imgproc::threshold(s16, out, 1000.0, 20000.0,
                           imgproc::ThresholdType::ToZero, path);
      });
      const Mat f32 = randomMat(size.height, size.width,
                                PixelType(Depth::F32, 1), 13);
      check1vsN("threshold-f32", path, size, [&](Mat& out) {
        imgproc::threshold(f32, out, 0.5, 1.0,
                           imgproc::ThresholdType::Trunc, path);
      });
    }
  }
}

TEST_F(ParallelEquivalence, ConvertBothDirections) {
  for (KernelPath path : caps::availablePaths()) {
    for (Size size : testSizes()) {
      const Mat f32 = randomMat(size.height, size.width,
                                PixelType(Depth::F32, 1), 21);
      check1vsN("cvt32f16s", path, size, [&](Mat& out) {
        core::convertTo(f32, out, Depth::S16, 1.0, 0.0, path);
      });
      const Mat u8 = randomMat(size.height, size.width, U8C1, 22);
      check1vsN("cvt8u32f", path, size, [&](Mat& out) {
        core::convertTo(u8, out, Depth::F32, 1.0, 0.0, path);
      });
      // Scaled conversion exercises the non-identity arm.
      check1vsN("cvt-scaled", path, size, [&](Mat& out) {
        core::convertTo(u8, out, Depth::F32, 1.0 / 255.0, -0.5, path);
      });
    }
  }
}

TEST_F(ParallelEquivalence, GaussianBlurBandsMatchSerialRing) {
  for (KernelPath path : caps::availablePaths()) {
    for (Size size : testSizes()) {
      const Mat u8 = randomMat(size.height, size.width, U8C1, 31);
      check1vsN("gaussian-7x7", path, size, [&](Mat& out) {
        imgproc::GaussianBlur(u8, out, {7, 7}, 1.0, 1.0,
                              imgproc::BorderType::Reflect101, path);
      });
    }
  }
}

TEST_F(ParallelEquivalence, SobelBandsMatchSerialRing) {
  for (KernelPath path : caps::availablePaths()) {
    for (Size size : testSizes()) {
      const Mat u8 = randomMat(size.height, size.width, U8C1, 41);
      check1vsN("sobel-dx", path, size, [&](Mat& out) {
        imgproc::Sobel(u8, out, Depth::S16, 1, 0, 3, 1.0,
                       imgproc::BorderType::Reflect101, path);
      });
    }
  }
}

TEST_F(ParallelEquivalence, EdgeDetectEndToEnd) {
  for (KernelPath path : caps::availablePaths()) {
    for (Size size : testSizes()) {
      const Mat u8 = randomMat(size.height, size.width, U8C1, 51);
      check1vsN("edge-detect", path, size, [&](Mat& out) {
        imgproc::edgeDetect(u8, out, 100.0, 3,
                            imgproc::BorderType::Reflect101, path);
      });
    }
  }
}

TEST_F(ParallelEquivalence, ArrayOpsBandsMatch) {
  for (KernelPath path : caps::availablePaths()) {
    const Size size{641, 479};
    const Mat a = randomMat(size.height, size.width, U8C1, 61);
    const Mat b = randomMat(size.height, size.width, U8C1, 62);
    check1vsN("add-u8", path, size, [&](Mat& out) {
      core::add(a, b, out, path);
    });
    check1vsN("absdiff-u8", path, size, [&](Mat& out) {
      core::absdiff(a, b, out, path);
    });
    const Mat fa = randomMat(size.height, size.width,
                             PixelType(Depth::F32, 1), 63);
    const Mat fb = randomMat(size.height, size.width,
                             PixelType(Depth::F32, 1), 64);
    check1vsN("addWeighted-f32", path, size, [&](Mat& out) {
      core::addWeighted(fa, 0.25, fb, 0.75, 1.5, out, path);
    });
  }
}

// Border modes move data across band seams in different ways; Wrap and
// Constant (with a nonzero value) are the adversarial ones for the ring
// engine's seam re-prime. The size makes the band rule split, and the run
// must really fork, for every source/destination depth sepFilter2D takes.
TEST_F(ParallelEquivalence, FilterBorderModesAcrossSeams) {
  const Size size{127, 200};
  const Mat u8 = randomMat(size.height, size.width, U8C1, 71);
  const Mat f32 = randomMat(size.height, size.width, PixelType(Depth::F32, 1),
                            72);
  const std::vector<float> kx = {0.125f, 0.25f, 0.3f, 0.25f, 0.075f};
  const std::vector<float> ky = {-1.0f, -2.0f, 0.0f, 2.0f, 1.5f};
  struct Case {
    const char* what;
    const Mat& src;
    Depth ddepth;
  };
  for (const Case& c : {Case{"sep-u8-u8", u8, Depth::U8},
                        Case{"sep-u8-s16", u8, Depth::S16},
                        Case{"sep-u8-f32", u8, Depth::F32},
                        Case{"sep-f32-f32", f32, Depth::F32}}) {
    for (imgproc::BorderType border :
         {imgproc::BorderType::Replicate, imgproc::BorderType::Reflect,
          imgproc::BorderType::Reflect101, imgproc::BorderType::Constant,
          imgproc::BorderType::Wrap}) {
      for (KernelPath path : caps::availablePaths()) {
        const std::uint64_t forked =
            check1vsN(c.what, path, size, [&](Mat& out) {
              imgproc::sepFilter2D(c.src, out, c.ddepth, kx, ky, border, 37.0,
                                   path);
            });
        EXPECT_GT(forked, 0u) << c.what << " border="
                              << static_cast<int>(border)
                              << " path=" << toString(path);
      }
    }
  }
}

}  // namespace
}  // namespace simdcv
