// erode / dilate (and open / close on top): separable running min/max over a
// rect structuring element, with the replicate border.
//
// morphRect runs the separable ring engine (ring_engine.hpp) that the
// convolutions run. Row pass: min/max over a kw window of the padded row —
// a sliding window of unaligned loads, since u8 min/max is carry-free and
// associative. Column pass: lane-wise min/max across the kh ring rows.
// Both passes are written once over VecTraits (morph_kernels.inl) and
// instantiated at SSE2 here and at AVX2 / AVX-512 in their own TUs; the
// NEON arms stay hand-written, as the paper's HAND-NEON object of study.
#include "imgproc/morphology.hpp"

#include <cstring>
#include <vector>

#include "imgproc/filter.hpp"
#include "imgproc/kernels.hpp"
#include "imgproc/morph_detail.hpp"
#include "imgproc/ring_engine.hpp"
#include "simd/neon_compat.hpp"

#if defined(__SSE2__)
#include "simd/vec_sse2.hpp"

#include "imgproc/morph_kernels.inl"
#endif

namespace simdcv::imgproc {

namespace detail {

// Lane-wise min/max across kh rows (the vertical pass), per path.
void morphVerticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                         int width, int kh, MinMax mode, KernelPath p) {
  if (p == KernelPath::Avx512) {
    morph_avx512::verticalMinMax(rows, out, width, kh, mode);
    return;
  }
  if (p == KernelPath::Avx2) {
    morph_avx2::verticalMinMax(rows, out, width, kh, mode);
    return;
  }
#if defined(__SSE2__)
  if (p == KernelPath::Sse2) {
    morph_vker::verticalMinMax<simd::backend::Sse2>(rows, out, width, kh, mode);
    return;
  }
#endif
  int x = 0;
  if (p == KernelPath::Neon) {
    for (; x + 16 <= width; x += 16) {
      uint8x16_t acc = vld1q_u8(rows[0] + x);
      for (int r = 1; r < kh; ++r) {
        const uint8x16_t v = vld1q_u8(rows[r] + x);
        acc = mode == MinMax::Min ? vminq_u8(acc, v) : vmaxq_u8(acc, v);
      }
      vst1q_u8(out + x, acc);
    }
  }
  for (; x < width; ++x) {
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
  if (p == KernelPath::Avx512) {
    morph_avx512::horizontalMinMax(padded, out, width, kw, mode);
    return;
  }
  if (p == KernelPath::Avx2) {
    morph_avx2::horizontalMinMax(padded, out, width, kw, mode);
    return;
  }
#if defined(__SSE2__)
  if (p == KernelPath::Sse2) {
    morph_vker::horizontalMinMax<simd::backend::Sse2>(padded, out, width, kw,
                                                      mode);
    return;
  }
#endif
  int i = 0;
  if (p == KernelPath::Neon) {
    for (; i + 16 <= width; i += 16) {
      uint8x16_t acc = vld1q_u8(padded + i);
      for (int j = 1; j < kw; ++j) {
        const uint8x16_t v = vld1q_u8(padded + i + j);
        acc = mode == MinMax::Min ? vminq_u8(acc, v) : vmaxq_u8(acc, v);
      }
      vst1q_u8(out + i, acc);
    }
  }
  for (; i < width; ++i) {
    std::uint8_t acc = padded[i];
    for (int j = 1; j < kw; ++j) {
      const std::uint8_t v = padded[i + j];
      acc = mode == MinMax::Min ? (v < acc ? v : acc) : (v > acc ? v : acc);
    }
    out[i] = acc;
  }
}

}  // namespace detail

namespace {

using detail::MinMax;

void morphRect(const Mat& src, Mat& dst, Size ksize, MinMax mode,
               KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "morphology: empty source");
  SIMDCV_REQUIRE(src.type() == U8C1, "morphology: u8c1 only");
  SIMDCV_REQUIRE(ksize.width >= 1 && (ksize.width & 1) && ksize.height >= 1 &&
                     (ksize.height & 1),
                 "morphology: ksize must be odd and positive");
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

void morphOpen(const Mat& src, Mat& dst, Size ksize, KernelPath path) {
  Mat tmp;
  erode(src, tmp, ksize, path);
  dilate(tmp, dst, ksize, path);
}

void morphClose(const Mat& src, Mat& dst, Size ksize, KernelPath path) {
  Mat tmp;
  dilate(src, tmp, ksize, path);
  erode(tmp, dst, ksize, path);
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
