// The 4-pass reference edge pipeline and the SIMD magnitude kernels.
// edgeDetect itself runs the edge graph (src/graph/edge_detect.cpp).
//
// All magnitude paths implement saturate_u8(|gx|_sat + |gy|_sat); because the
// final range is [0,255], saturating-s16 and exact-int arithmetic agree on
// every input, so the paths are bit-exact with one another (see tests).
#include "imgproc/edge.hpp"

#include "imgproc/edge_detail.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/threshold.hpp"
#include "prof/prof.hpp"
#include "runtime/parallel.hpp"
#include "simd/neon_compat.hpp"

#if defined(__SSE2__)
#include "simd/vec_sse2.hpp"

#include "imgproc/edge_kernels.inl"
#endif

namespace simdcv::imgproc {

namespace sse2 {

void magnitudeS16(const std::int16_t* gx, const std::int16_t* gy,
                  std::uint8_t* dst, std::size_t n) {
#if defined(__SSE2__)
  vker::magnitudeS16<simd::backend::Sse2>(gx, gy, dst, n);
#else
  autovec::magnitudeS16(gx, gy, dst, n);
#endif
}

}  // namespace sse2

namespace neon {

void magnitudeS16(const std::int16_t* gx, const std::int16_t* gy,
                  std::uint8_t* dst, std::size_t n) {
  std::size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    const int16x8_t ax = vqabsq_s16(vld1q_s16(gx + x));
    const int16x8_t ay = vqabsq_s16(vld1q_s16(gy + x));
    const int16x8_t m = vqaddq_s16(ax, ay);
    vst1_u8(dst + x, vqmovun_s16(m));
  }
  if (x < n) autovec::magnitudeS16(gx + x, gy + x, dst + x, n - x);
}

}  // namespace neon

namespace detail {

MagnitudeFn magnitudeFnFor(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &avx512::magnitudeS16;
    case KernelPath::Avx2: return &avx2::magnitudeS16;
    case KernelPath::Sse2: return &sse2::magnitudeS16;
    case KernelPath::Neon: return &neon::magnitudeS16;
    case KernelPath::ScalarNoVec: return &novec::magnitudeS16;
    default: return &autovec::magnitudeS16;
  }
}

}  // namespace detail

void gradientMagnitude(const Mat& gx, const Mat& gy, Mat& dst,
                       KernelPath path) {
  SIMDCV_REQUIRE(gx.size() == gy.size(), "magnitude: gx/gy size mismatch");
  SIMDCV_REQUIRE(gx.depth() == Depth::S16 && gy.depth() == Depth::S16,
                 "magnitude: gradients must be s16");
  SIMDCV_REQUIRE(gx.channels() == 1 && gy.channels() == 1,
                 "magnitude: single channel only");
  const KernelPath p = resolvePath(path);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(gx.rows()) * detail::magnitudeRowBytes(gx.cols());
  SIMDCV_TRACE_SCOPE("gradientMagnitude", p, bytes);
  const detail::MagnitudeFn fn = detail::magnitudeFnFor(p);
  Mat out = (dst.sharesStorageWith(gx) || dst.sharesStorageWith(gy))
                ? Mat()
                : std::move(dst);
  out.create(gx.rows(), gx.cols(), U8C1);
  const std::size_t n = static_cast<std::size_t>(gx.cols());
  // Element-wise over (gx, gy): banding rows cannot change the result. The
  // fork decision prices a row via magnitudeRowBytes — the same traffic the
  // trace scope above accounts.
  const int grain = runtime::parallelThreshold(
      static_cast<std::size_t>(detail::magnitudeRowBytes(gx.cols())),
      gx.rows());
  runtime::parallel_for(
      {0, gx.rows()},
      [&](runtime::Range band) {
        for (int r = band.begin; r < band.end; ++r)
          fn(gx.ptr<std::int16_t>(r), gy.ptr<std::int16_t>(r),
             out.ptr<std::uint8_t>(r), n);
      },
      grain);
  dst = std::move(out);
}

void edgeDetectUnfused(const Mat& src, Mat& dst, double thresh, int ksize,
                       BorderType border, KernelPath path) {
  SIMDCV_TRACE_SCOPE("edge.unfused", resolvePath(path),
                     static_cast<std::uint64_t>(src.rows()) * src.cols() *
                         (src.elemSize() + 1));
  Mat gx, gy, mag;
  Sobel(src, gx, Depth::S16, 1, 0, ksize, 1.0, border, path);
  Sobel(src, gy, Depth::S16, 0, 1, ksize, 1.0, border, path);
  gradientMagnitude(gx, gy, mag, path);
  threshold(mag, dst, thresh, 255.0, ThresholdType::Binary, path);
}

}  // namespace simdcv::imgproc
