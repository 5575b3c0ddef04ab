// Template matching implementation + SIMD SAD kernels.
#include "imgproc/match.hpp"

#include <limits>

#include "simd/neon_compat.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace simdcv::imgproc {

namespace sse2 {

std::uint64_t sadRange(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t n) {
#if defined(__SSE2__)
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i sad = _mm_sad_epu8(va, vb);  // two u16 sums in u64 lanes
    acc += static_cast<std::uint64_t>(_mm_cvtsi128_si64(sad)) +
           static_cast<std::uint64_t>(
               _mm_cvtsi128_si64(_mm_srli_si128(sad, 8)));
  }
  return acc + autovec::sadRange(a + i, b + i, n - i);
#else
  return autovec::sadRange(a, b, n);
#endif
}

}  // namespace sse2

namespace neon {

std::uint64_t sadRange(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t n) {
  std::uint64_t acc = 0;
  std::size_t i = 0;
  // vabal widens |a-b| into u16 lanes; drain to u32 every 128 blocks so the
  // u16 accumulators can never wrap (128 * 2 * 255 = 65280 < 65536).
  while (i + 16 <= n) {
    uint16x8_t acc16 = vdupq_n_u16(0);
    int blocks = 0;
    for (; i + 16 <= n && blocks < 128; i += 16, ++blocks) {
      const uint8x16_t va = vld1q_u8(a + i);
      const uint8x16_t vb = vld1q_u8(b + i);
      acc16 = vabal_u8(acc16, vget_low_u8(va), vget_low_u8(vb));
      acc16 = vabal_u8(acc16, vget_high_u8(va), vget_high_u8(vb));
    }
    const uint32x4_t acc32 = vpaddlq_u16(acc16);
    acc += static_cast<std::uint64_t>(vgetq_lane_u32(acc32, 0)) +
           vgetq_lane_u32(acc32, 1) + vgetq_lane_u32(acc32, 2) +
           vgetq_lane_u32(acc32, 3);
  }
  return acc + autovec::sadRange(a + i, b + i, n - i);
}

}  // namespace neon

namespace {

// PSADBW already saturates the port, so SAD has no AVX2/AVX-512 arm; the
// caller resolves its path with widest=Sse2.
std::uint64_t sadRow(const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n, KernelPath p) {
  switch (p) {
    case KernelPath::Sse2: return sse2::sadRange(a, b, n);
    case KernelPath::Neon: return neon::sadRange(a, b, n);
    case KernelPath::ScalarNoVec: return novec::sadRange(a, b, n);
    default: return autovec::sadRange(a, b, n);
  }
}

}  // namespace

MatchResult findBestMatch(const Mat& img, const Mat& tmpl, KernelPath path) {
  SIMDCV_REQUIRE(!img.empty() && !tmpl.empty(), "findBestMatch: empty input");
  SIMDCV_REQUIRE(img.type() == U8C1 && tmpl.type() == U8C1,
                 "findBestMatch: u8c1 only");
  SIMDCV_REQUIRE(tmpl.cols() <= img.cols() && tmpl.rows() <= img.rows(),
                 "findBestMatch: template larger than image");
  const KernelPath p = resolvePath(path, /*widest=*/KernelPath::Sse2);
  MatchResult best;
  best.sad = std::numeric_limits<std::uint64_t>::max();
  for (int y = 0; y + tmpl.rows() <= img.rows(); ++y) {
    for (int x = 0; x + tmpl.cols() <= img.cols(); ++x) {
      std::uint64_t acc = 0;
      for (int r = 0; r < tmpl.rows() && acc < best.sad; ++r) {
        acc += sadRow(img.ptr<std::uint8_t>(y + r) + x,
                      tmpl.ptr<std::uint8_t>(r),
                      static_cast<std::size_t>(tmpl.cols()), p);
      }
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
