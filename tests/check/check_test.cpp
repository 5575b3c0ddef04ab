// gtest wrapper around simdcv::check — runs the differential oracle with a
// fixed seed as part of the tier-1 suite (ctest label `check`), plus unit
// coverage for the generator, the shrinker and the comparison utilities the
// oracle depends on.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/mat.hpp"

namespace simdcv::check {
namespace {

// ---- the oracle itself -----------------------------------------------------

TEST(CheckAll, AllKernelsAgreeAcrossPaths) {
  Options opts;
  opts.iters = 40;  // the standalone check_all binary runs the full 500
  const Report report = runAll(opts);
  EXPECT_GE(report.kernels_checked, 25u);
  EXPECT_EQ(report.cases_run, report.kernels_checked * 40);
  for (const Failure& f : report.failures) {
    ADD_FAILURE() << f.kernel << ": " << f.mismatches
                  << " mismatches, repro: " << f.repro;
  }
}

TEST(CheckAll, SecondSeedAgreesToo) {
  Options opts;
  opts.seed = 0xfeedface5eedull;
  opts.iters = 15;
  EXPECT_TRUE(runAll(opts).ok());
}

TEST(CheckAll, OnlyFilterSelectsSubset) {
  Options opts;
  opts.iters = 5;
  opts.only = "threshold.";
  const Report report = runAll(opts);
  EXPECT_EQ(report.kernels_checked, 5u);  // the five threshold types
  EXPECT_TRUE(report.ok());
}

// ---- generator -------------------------------------------------------------

TEST(CheckGen, DeterministicPerSeedAndSalt) {
  CaseSpec c;
  c.seed = 0x1234;
  c.rows = 7;
  c.cols = 13;
  c.domain = Domain::Special;
  const Mat a1 = genMat(c, 1, F32C1);
  const Mat a2 = genMat(c, 1, F32C1);
  const Mat b = genMat(c, 2, F32C1);
  EXPECT_EQ(countMismatches(a1, a2), 0u);
  EXPECT_GT(countMismatches(a1, b), 0u);  // different stream
}

TEST(CheckGen, RoiCasesAreNonContiguousViews) {
  CaseSpec c;
  c.seed = 99;
  c.rows = 5;
  c.cols = 8;
  c.roiX = 3;
  c.roiY = 2;
  const Mat m = genMat(c, 1, U8C1);
  EXPECT_EQ(m.rows(), 5);
  EXPECT_EQ(m.cols(), 8);
  EXPECT_FALSE(m.isContinuous());
}

TEST(CheckGen, BoundaryDomainHitsSaturationPivots) {
  CaseSpec c;
  c.seed = 7;
  c.rows = 16;
  c.cols = 64;
  c.domain = Domain::Boundary;
  const Mat m = genMat(c, 1, F32C1);
  bool sawTie = false;
  for (int y = 0; y < m.rows() && !sawTie; ++y) {
    const float* p = m.ptr<float>(y);
    for (int x = 0; x < m.cols(); ++x) {
      if (p[x] == 32768.5f || p[x] == -32768.5f || p[x] == 255.5f) {
        sawTie = true;
        break;
      }
    }
  }
  EXPECT_TRUE(sawTie) << "boundary domain never produced a saturation tie";
}

TEST(CheckGen, DescribeRoundTripsTheSpecFields) {
  CaseSpec c;
  c.seed = 0xabcdef;
  c.rows = 3;
  c.cols = 97;
  c.roiX = 4;
  c.roiY = 1;
  c.domain = Domain::Boundary;
  c.variant = 42;
  EXPECT_EQ(describe(c),
            "seed=0xabcdef rows=3 cols=97 roi=4,1 domain=boundary variant=42");
}

// ---- oracle mechanics on a deliberately broken kernel ----------------------

/// A fake kernel that is correct everywhere except one path, where the top-left
/// element is off by one: the checker must flag exactly that path and the
/// shrinker must reduce the case to 1x1 (the bug survives any shrink).
KernelCheck brokenKernel() {
  return {"fake.broken",
          [](const CaseSpec& c, KernelPath p) {
            Mat owned = genMat(c, 1, U8C1).clone();
            if (p == KernelPath::Sse2) {
              owned.at<std::uint8_t>(0, 0) =
                  static_cast<std::uint8_t>(owned.at<std::uint8_t>(0, 0) + 1);
            }
            return owned;
          },
          Tolerance::Exact()};
}

TEST(CheckOracle, FlagsExactlyTheBrokenPath) {
  CaseSpec c;
  c.seed = 11;
  c.rows = 9;
  c.cols = 33;
  const auto failures = checkCase(brokenKernel(), c, 2, Tolerance::Exact());
  ASSERT_EQ(failures.size(), 2u);  // sse2 x {1, 2} threads
  for (const auto& f : failures) {
    EXPECT_EQ(f.path, KernelPath::Sse2);
    EXPECT_EQ(f.mismatches, 1u);
    EXPECT_EQ(f.max_abs_diff, 1.0);
    EXPECT_NE(f.repro.find("fake.broken"), std::string::npos);
  }
}

TEST(CheckOracle, CleanKernelProducesNoFailures) {
  KernelCheck clean{"fake.clean",
                    [](const CaseSpec& c, KernelPath) {
                      return genMat(c, 1, U8C1).clone();
                    },
                    Tolerance::Exact()};
  CaseSpec c;
  c.seed = 12;
  c.rows = 4;
  c.cols = 17;
  c.roiX = 2;
  c.roiY = 1;
  EXPECT_TRUE(checkCase(clean, c, 2, Tolerance::Exact()).empty());
}

// ---- comparison-utility regressions the oracle surfaced --------------------

// Two +Inf outputs are EQUAL: |Inf - Inf| is NaN, and the comparator used to
// count that as a mismatch, flagging every path (including the reference
// against itself at a different thread count) on any case whose correct
// output contained an infinity.
TEST(CompareRegression, EqualInfinitiesAreNotMismatches) {
  const float inf = std::numeric_limits<float>::infinity();
  Mat a(1, 4, F32C1);
  Mat b(1, 4, F32C1);
  float* pa = a.ptr<float>(0);
  float* pb = b.ptr<float>(0);
  pa[0] = inf;     pb[0] = inf;
  pa[1] = -inf;    pb[1] = -inf;
  pa[2] = 1.0f;    pb[2] = 1.0f;
  pa[3] = 0.0f;    pb[3] = 0.0f;
  EXPECT_EQ(countMismatches(a, b), 0u);
  EXPECT_EQ(maxAbsDiff(a, b), 0.0);

  pb[0] = -inf;  // opposite infinities DO differ
  EXPECT_EQ(countMismatches(a, b), 1u);
  pb[0] = 1.0f;  // Inf vs finite differs too
  EXPECT_EQ(countMismatches(a, b), 1u);
}

// Exact comparison (Tolerance::Exact, tol == 0) sees the sign of a zero: a
// path that returns -0 where the reference returns +0 is not bit-exact. A
// tolerance compares values, where -0 == +0.
TEST(CompareRegression, ExactComparisonSeesSignOfZero) {
  Mat a(1, 3, F32C1), b(1, 3, F32C1);
  a.at<float>(0, 0) = 0.0f;  b.at<float>(0, 0) = -0.0f;
  a.at<float>(0, 1) = -0.0f; b.at<float>(0, 1) = -0.0f;
  a.at<float>(0, 2) = std::numeric_limits<float>::quiet_NaN();
  b.at<float>(0, 2) = -std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(countMismatches(a, b), 1u);
  EXPECT_EQ(countMismatches(a, b, 1.0), 0u);
  EXPECT_EQ(maxAbsDiff(a, b), 0.0);
  Mat c(1, 2, F64C1), d(1, 2, F64C1);
  c.at<double>(0, 0) = -0.0;  d.at<double>(0, 0) = 0.0;
  c.at<double>(0, 1) = 2.0;   d.at<double>(0, 1) = 2.0;
  EXPECT_EQ(countMismatches(c, d), 1u);
}

}  // namespace
}  // namespace simdcv::check
