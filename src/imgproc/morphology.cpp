// erode / dilate: separable running min/max over a rect structuring element,
// with the replicate border. morphOpen / morphClose run them as a two-node
// graph (graph/morph_open_close.cpp).
//
// morphRect runs the separable ring engine (ring_engine.hpp) that the
// convolutions run. Row pass: min/max over a kw window of the padded row —
// a sliding window of unaligned loads, since u8 min/max is carry-free and
// associative. Column pass: lane-wise min/max across the kh ring rows.
// Both passes are written once over VecTraits (morph_kernels.inl) and
// instantiated at SSE2 and NEON here and at AVX2 / AVX-512 in their own
// TUs.
#include "imgproc/morphology.hpp"

#include <cstring>
#include <vector>

#include "imgproc/filter.hpp"
#include "imgproc/kernels.hpp"
#include "imgproc/morph_detail.hpp"
#include "imgproc/ring_engine.hpp"
#include "simd/vec_neon.hpp"

#if defined(__SSE2__)
#include "simd/vec_sse2.hpp"
#endif

#include "imgproc/morph_kernels.inl"

namespace simdcv::imgproc {

namespace detail {

// Lane-wise min/max across kh rows (the vertical pass), per path.
void morphVerticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                         int width, int kh, MinMax mode, KernelPath p) {
  switch (p) {
    case KernelPath::Avx512:
      return morph_avx512::verticalMinMax(rows, out, width, kh, mode);
    case KernelPath::Avx2:
      return morph_avx2::verticalMinMax(rows, out, width, kh, mode);
#if defined(__SSE2__)
    case KernelPath::Sse2:
      return morph_vker::verticalMinMax<simd::backend::Sse2>(rows, out, width,
                                                             kh, mode);
#endif
    case KernelPath::Neon:
      return morph_vker::verticalMinMax<simd::backend::Neon>(rows, out, width,
                                                             kh, mode);
    default:
      break;
  }
  for (int x = 0; x < width; ++x) {
    std::uint8_t acc = rows[0][x];
    for (int r = 1; r < kh; ++r) {
      const std::uint8_t v = rows[r][x];
      acc = mode == MinMax::Min ? (v < acc ? v : acc) : (v > acc ? v : acc);
    }
    out[x] = acc;
  }
}

// Horizontal min/max over a kw window of a replicate-padded row. The SIMD
// form slides the window with unaligned loads: out[i..i+15] needs the min/max
// of padded[i+j..i+j+15] for j in [0, kw), each one loadu away — no shuffles.
void morphHorizontalMinMax(const std::uint8_t* padded, std::uint8_t* out,
                           int width, int kw, MinMax mode, KernelPath p) {
  switch (p) {
    case KernelPath::Avx512:
      return morph_avx512::horizontalMinMax(padded, out, width, kw, mode);
    case KernelPath::Avx2:
      return morph_avx2::horizontalMinMax(padded, out, width, kw, mode);
#if defined(__SSE2__)
    case KernelPath::Sse2:
      return morph_vker::horizontalMinMax<simd::backend::Sse2>(padded, out,
                                                               width, kw, mode);
#endif
    case KernelPath::Neon:
      return morph_vker::horizontalMinMax<simd::backend::Neon>(padded, out,
                                                               width, kw, mode);
    default:
      break;
  }
  for (int i = 0; i < width; ++i) {
    std::uint8_t acc = padded[i];
    for (int j = 1; j < kw; ++j) {
      const std::uint8_t v = padded[i + j];
      acc = mode == MinMax::Min ? (v < acc ? v : acc) : (v > acc ? v : acc);
    }
    out[i] = acc;
  }
}

void requireMorphArgs(const Mat& src, Size ksize) {
  SIMDCV_REQUIRE(!src.empty(), "morphology: empty source");
  SIMDCV_REQUIRE(src.type() == U8C1, "morphology: u8c1 only");
  SIMDCV_REQUIRE(ksize.width >= 1 && (ksize.width & 1) && ksize.height >= 1 &&
                     (ksize.height & 1),
                 "morphology: ksize must be odd and positive");
}

}  // namespace detail

namespace {

using detail::MinMax;

void morphRect(const Mat& src, Mat& dst, Size ksize, MinMax mode,
               KernelPath path) {
  detail::requireMorphArgs(src, ksize);
  const KernelPath p = resolvePath(path);
  const int rows = src.rows(), width = src.cols();
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(rows, width, U8C1);
  ring::runBanded<std::uint8_t>(
      "morphRect", p,
      2 * static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(width),
      {rows, width, ksize.width, ksize.height, BorderType::Replicate},
      std::uint8_t{0},
      [&](int m, std::uint8_t* d) {
        std::memcpy(d, src.ptr<std::uint8_t>(m),
                    static_cast<std::size_t>(width));
      },
      [&](const std::uint8_t* padded, std::uint8_t* o) {
        detail::morphHorizontalMinMax(padded, o, width, ksize.width, mode, p);
      },
      [&](const std::uint8_t* const* taps, int y, std::uint8_t*) {
        detail::morphVerticalMinMax(taps, out.ptr<std::uint8_t>(y), width,
                                    ksize.height, mode, p);
      });
  dst = std::move(out);
}

}  // namespace

void erode(const Mat& src, Mat& dst, Size ksize, KernelPath path) {
  morphRect(src, dst, ksize, MinMax::Min, path);
}

void dilate(const Mat& src, Mat& dst, Size ksize, KernelPath path) {
  morphRect(src, dst, ksize, MinMax::Max, path);
}

void boxFilter(const Mat& src, Mat& dst, Size ksize, BorderType border,
               KernelPath path) {
  SIMDCV_REQUIRE(ksize.width >= 1 && (ksize.width & 1) && ksize.height >= 1 &&
                     (ksize.height & 1),
                 "boxFilter: ksize must be odd and positive");
  const std::vector<float> kx(static_cast<std::size_t>(ksize.width),
                              1.0f / static_cast<float>(ksize.width));
  const std::vector<float> ky(static_cast<std::size_t>(ksize.height),
                              1.0f / static_cast<float>(ksize.height));
  sepFilter2D(src, dst, src.depth(), kx, ky, border, 0.0, path);
}

}  // namespace simdcv::imgproc
