// Template matching: SAD kernel exactness, localization, path agreement.
#include "imgproc/match.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "core/array_ops_detail.hpp"
#include "simd/caps.hpp"

namespace simdcv::imgproc {
namespace {

std::vector<KernelPath> paths() {
  return caps::availablePaths();
}

// The hand SADs of one n-byte row (a one-row placement), one sum per
// selectable backend.
std::vector<std::uint64_t> handSads(const std::uint8_t* a,
                                    const std::uint8_t* b, std::size_t n) {
  namespace cd = core::detail;
  const struct {
    KernelPath path;
    std::uint64_t (*fn)(const std::uint8_t*, std::size_t, const std::uint8_t*,
                        std::size_t, int, int, std::uint64_t);
  } arms[] = {{KernelPath::Sse2, &cd::aops_sse2::sadBlock},
              {KernelPath::Avx2, &cd::aops_avx2::sadBlock},
              {KernelPath::Avx512, &cd::aops_avx512::sadBlock},
              {KernelPath::Neon, &cd::aops_neon::sadBlock}};
  std::vector<std::uint64_t> sums;
  for (const auto& arm : arms) {
    if (!caps::selectable(arm.path)) continue;
    sums.push_back(arm.fn(a, n, b, n, static_cast<int>(n), 1,
                          std::numeric_limits<std::uint64_t>::max()));
  }
  return sums;
}

Mat randomU8(int rows, int cols, unsigned seed) {
  Mat m(rows, cols, U8C1);
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(rng());
  return m;
}

TEST(SadRange, AllPathsExactOnRandomData) {
  std::mt19937 rng(1);
  std::vector<std::uint8_t> a(1003), b(1003);  // odd length: vector tail
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(rng());
    b[i] = static_cast<std::uint8_t>(rng());
  }
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    want += static_cast<std::uint64_t>(std::abs(static_cast<int>(a[i]) - b[i]));
  EXPECT_EQ(autovec::sadRange(a.data(), b.data(), a.size()), want);
  EXPECT_EQ(novec::sadRange(a.data(), b.data(), a.size()), want);
  for (std::uint64_t s : handSads(a.data(), b.data(), a.size()))
    EXPECT_EQ(s, want);
}

TEST(SadRange, ExtremesAndAccumulatorHeadroom) {
  // Max-difference data over a long run stresses accumulator widths.
  const std::size_t n = 1 << 20;
  std::vector<std::uint8_t> a(n, 255), b(n, 0);
  const std::uint64_t want = 255ull * n;
  for (std::uint64_t s : handSads(a.data(), b.data(), n)) EXPECT_EQ(s, want);
  EXPECT_EQ(autovec::sadRange(a.data(), b.data(), n), want);
  for (std::uint64_t s : handSads(a.data(), a.data(), n)) EXPECT_EQ(s, 0u);
}

TEST(MatchTemplate, FindsEmbeddedPatch) {
  Mat img = randomU8(64, 80, 4);
  const Rect where(37, 22, 12, 9);
  const Mat tmpl = img.roi(where).clone();
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    const auto best = findBestMatch(img, tmpl, p);
    EXPECT_EQ(best.x, where.x) << toString(p);
    EXPECT_EQ(best.y, where.y) << toString(p);
    EXPECT_EQ(best.sad, 0u) << toString(p);
  }
}

TEST(MatchTemplate, FindsPatchUnderNoise) {
  Mat img = randomU8(48, 48, 5);
  Mat tmpl = img.roi({10, 30, 8, 8}).clone();
  // Perturb the template slightly: the true location must still win.
  std::mt19937 rng(6);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) {
      int v = tmpl.at<std::uint8_t>(r, c) + static_cast<int>(rng() % 7) - 3;
      tmpl.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(
          v < 0 ? 0 : (v > 255 ? 255 : v));
    }
  const auto best = findBestMatch(img, tmpl);
  EXPECT_EQ(best.x, 10);
  EXPECT_EQ(best.y, 30);
  EXPECT_GT(best.sad, 0u);
}

TEST(MatchTemplate, Validation) {
  Mat img = randomU8(8, 8, 10), big = randomU8(10, 10, 11);
  EXPECT_THROW(findBestMatch(img, big), Error);
  Mat f(4, 4, F32C1);
  EXPECT_THROW(findBestMatch(f, f), Error);
}

}  // namespace
}  // namespace simdcv::imgproc
