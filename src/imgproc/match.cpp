// Template matching implementation. The SAD's hand arms are the
// width-generic array-op body (core/array_ops_kernels.inl: saturating
// subtracts, then the traits' sadSumU8 reduction — PSADBW on x86, the
// vpaddl ladder on NEON), one call per placement.
#include "imgproc/match.hpp"

#include <limits>

#include "core/array_ops_detail.hpp"

namespace simdcv::imgproc {

namespace {

using SadBlockFn = std::uint64_t (*)(const std::uint8_t* a, std::size_t astep,
                                     const std::uint8_t* b, std::size_t bstep,
                                     int w, int h, std::uint64_t bound);

// The scalar arms of core's sadBlock: one row kernel per template
// row, with the same early exit once the sum reaches `bound`.
template <std::uint64_t (*Row)(const std::uint8_t*, const std::uint8_t*,
                               std::size_t)>
std::uint64_t sadRows(const std::uint8_t* a, std::size_t astep,
                      const std::uint8_t* b, std::size_t bstep, int w, int h,
                      std::uint64_t bound) {
  std::uint64_t acc = 0;
  for (int r = 0; r < h && acc < bound; ++r)
    acc += Row(a + r * astep, b + r * bstep, static_cast<std::size_t>(w));
  return acc;
}

SadBlockFn sadBlockFor(KernelPath p) {
  namespace cd = core::detail;
  switch (p) {
    case KernelPath::Avx512: return &cd::aops_avx512::sadBlock;
    case KernelPath::Avx2: return &cd::aops_avx2::sadBlock;
    case KernelPath::Sse2: return &cd::aops_sse2::sadBlock;
    case KernelPath::Neon: return &cd::aops_neon::sadBlock;
    case KernelPath::ScalarNoVec: return &sadRows<&novec::sadRange>;
    default: return &sadRows<&autovec::sadRange>;
  }
}

}  // namespace

MatchResult findBestMatch(const Mat& img, const Mat& tmpl, KernelPath path) {
  SIMDCV_REQUIRE(!img.empty() && !tmpl.empty(), "findBestMatch: empty input");
  SIMDCV_REQUIRE(img.type() == U8C1 && tmpl.type() == U8C1,
                 "findBestMatch: u8c1 only");
  SIMDCV_REQUIRE(tmpl.cols() <= img.cols() && tmpl.rows() <= img.rows(),
                 "findBestMatch: template larger than image");
  const SadBlockFn sad = sadBlockFor(resolvePath(path));
  MatchResult best;
  best.sad = std::numeric_limits<std::uint64_t>::max();
  for (int y = 0; y + tmpl.rows() <= img.rows(); ++y) {
    for (int x = 0; x + tmpl.cols() <= img.cols(); ++x) {
      const std::uint64_t acc =
          sad(img.ptr<std::uint8_t>(y) + x, img.step(),
              tmpl.ptr<std::uint8_t>(0), tmpl.step(), tmpl.cols(),
              tmpl.rows(), best.sad);
      if (acc < best.sad) {
        best.sad = acc;
        best.x = x;
        best.y = y;
      }
    }
  }
  return best;
}

}  // namespace simdcv::imgproc
