// Template matching by sum of absolute differences (SAD) — the workhorse of
// block-based video motion estimation, and on u8 data the single most
// SIMD-friendly reduction there is (PSADBW sums 16 absolute differences per
// instruction; NEON uses the vabal widening ladder).
#pragma once

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

struct MatchResult {
  int x = -1, y = -1;
  std::uint64_t sad = 0;
};
/// Best (minimum-SAD) placement of tmpl inside img.
MatchResult findBestMatch(const Mat& img, const Mat& tmpl,
                          KernelPath path = KernelPath::Default);

// Per-path flat SAD kernels over n bytes; the x86 arms are
// core::detail::aops_{sse2,avx2,avx512}::sadBlock, one whole placement
// (core/array_ops_detail.hpp).
namespace autovec {
std::uint64_t sadRange(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t n);
}
namespace novec {
std::uint64_t sadRange(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t n);
}
namespace neon {
std::uint64_t sadRange(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t n);
}

}  // namespace simdcv::imgproc
