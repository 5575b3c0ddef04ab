// sepFilter2D, the float separable convolution (paper B3/B4), and the
// filters built on it (GaussianBlur, Sobel, boxFilter).
//
// Per output row (ring_engine.hpp runs the loop):
//   source row --convert-to-float--> padded row --rowConv(kx)--> ring row
//   kh ring rows --colConv(ky)--> float row --store--> dst depth
//
// This file supplies the float steps: the path-matched u8/f32 -> float load,
// the rowConv/colConv selectors and the saturating store, which the graph
// executor's SepConv nodes call too. All arithmetic is float32 and every
// KernelPath performs the adds in the same per-element order, which keeps
// the HAND and AUTO arms bit-exact with each other.
#include "imgproc/filter.hpp"

#include <cmath>
#include <cstring>

#include "core/convert.hpp"
#include "core/saturate.hpp"
#include "imgproc/filter_detail.hpp"
#include "imgproc/kernels.hpp"
#include "imgproc/ring_engine.hpp"

namespace simdcv::imgproc {

namespace detail {

RowConvFn rowConvFor(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &avx512::rowConv;
    case KernelPath::Avx2: return &avx2::rowConv;
    case KernelPath::Sse2: return &sse2::rowConv;
    case KernelPath::Neon: return &neon::rowConv;
    case KernelPath::ScalarNoVec: return &novec::rowConv;
    default: return &autovec::rowConv;
  }
}

ColConvFn colConvFor(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &avx512::colConv;
    case KernelPath::Avx2: return &avx2::colConv;
    case KernelPath::Sse2: return &sse2::colConv;
    case KernelPath::Neon: return &neon::colConv;
    case KernelPath::ScalarNoVec: return &novec::colConv;
    default: return &autovec::colConv;
  }
}

// Convert one flat row to float using the path-matched kernel so the HAND
// arms measure their own data movement, as in OpenCV.
void loadRowPtrAsFloat(Depth depth, const void* row, float* out, std::size_t n,
                       KernelPath p) {
  if (depth == Depth::F32) {
    std::memcpy(out, row, n * sizeof(float));
    return;
  }
  const std::uint8_t* s = static_cast<const std::uint8_t*>(row);
  switch (resolvePath(p)) {
    case KernelPath::Avx512: core::avx512::cvt8u32f(s, out, n); break;
    case KernelPath::Avx2: core::avx2::cvt8u32f(s, out, n); break;
    case KernelPath::Sse2: core::sse2::cvt8u32f(s, out, n); break;
    case KernelPath::Neon: core::neon::cvt8u32f(s, out, n); break;
    case KernelPath::ScalarNoVec:
      core::novec::cvtRange(Depth::U8, Depth::F32, s, out, n);
      break;
    default: core::autovec::cvtRange(Depth::U8, Depth::F32, s, out, n); break;
  }
}

CvtS16Fn cvt32f16sFor(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &core::avx512::cvt32f16s;
    case KernelPath::Avx2: return &core::avx2::cvt32f16s;
    case KernelPath::Sse2: return &core::sse2::cvt32f16s;
    case KernelPath::Neon: return &core::neon::cvt32f16s;
    case KernelPath::ScalarNoVec: return &core::novec::cvt32f16s;
    default: return &core::autovec::cvt32f16s;
  }
}

void storeRowPtr(const float* row, Depth depth, void* dst, std::size_t n,
                 KernelPath p) {
  switch (depth) {
    case Depth::F32:
      std::memcpy(dst, row, n * sizeof(float));
      break;
    case Depth::S16:
      cvt32f16sFor(p)(row, static_cast<std::int16_t*>(dst), n);
      break;
    case Depth::U8:
    default: {
      std::uint8_t* d = static_cast<std::uint8_t*>(dst);
      switch (resolvePath(p)) {
        case KernelPath::Avx512: core::avx512::cvt32f8u(row, d, n); break;
        case KernelPath::Avx2: core::avx2::cvt32f8u(row, d, n); break;
        case KernelPath::Sse2: core::sse2::cvt32f8u(row, d, n); break;
        case KernelPath::Neon: core::neon::cvt32f8u(row, d, n); break;
        case KernelPath::ScalarNoVec:
          core::novec::cvtRange(Depth::F32, Depth::U8, row, d, n);
          break;
        default:
          core::autovec::cvtRange(Depth::F32, Depth::U8, row, d, n);
          break;
      }
      break;
    }
  }
}

}  // namespace detail

void sepFilter2D(const Mat& src, Mat& dst, Depth ddepth,
                 const std::vector<float>& kx, const std::vector<float>& ky,
                 BorderType border, double borderValue, KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "sepFilter2D: empty source");
  SIMDCV_REQUIRE(src.channels() == 1, "sepFilter2D: single channel only");
  SIMDCV_REQUIRE(src.depth() == Depth::U8 || src.depth() == Depth::F32,
                 "sepFilter2D: source depth must be u8 or f32");
  SIMDCV_REQUIRE(ddepth == Depth::U8 || ddepth == Depth::S16 ||
                     ddepth == Depth::F32,
                 "sepFilter2D: dst depth must be u8, s16 or f32");
  SIMDCV_REQUIRE(!kx.empty() && !ky.empty() && (kx.size() & 1) && (ky.size() & 1),
                 "sepFilter2D: kernels must have odd length");
  const int kw = static_cast<int>(kx.size());
  const int kh = static_cast<int>(ky.size());
  const int rows = src.rows();
  const int width = src.cols();
  SIMDCV_REQUIRE(border != BorderType::Wrap || (rows >= 1 && width >= 1),
                 "sepFilter2D: wrap border needs non-empty image");

  const KernelPath p = resolvePath(path);
  const auto rowFn = detail::rowConvFor(p);
  const auto colFn = detail::colConvFor(p);

  // The source may alias dst; the engine reads src rows lazily, so writing
  // into the same storage would corrupt later reads. Detach in that case.
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(rows, width, PixelType(ddepth, 1));

  const std::size_t w = static_cast<std::size_t>(width);
  ring::runBanded<float>(
      "sepFilter2D", p,
      static_cast<std::uint64_t>(rows) * width *
          (src.elemSize() + depthSize(ddepth)),
      {rows, width, kw, kh, border}, static_cast<float>(borderValue),
      [&](int m, float* d) {
        detail::loadRowPtrAsFloat(src.depth(), src.ptr<std::uint8_t>(m), d, w,
                                  p);
      },
      [&](const float* padded, float* o) {
        rowFn(padded, o, width, kx.data(), kw);
      },
      [&](const float* const* taps, int y, float* spare) {
        if (ddepth == Depth::F32) {  // no narrowing: write the row in place
          colFn(taps, out.ptr<float>(y), width, ky.data(), kh);
          return;
        }
        colFn(taps, spare, width, ky.data(), kh);
        detail::storeRowPtr(spare, ddepth, out.ptr<std::uint8_t>(y), w, p);
      });
  dst = std::move(out);
}

void GaussianBlur(const Mat& src, Mat& dst, Size ksize, double sigmaX,
                  double sigmaY, BorderType border, KernelPath path) {
  if (sigmaY <= 0) sigmaY = sigmaX;
  int kw = ksize.width;
  int kh = ksize.height;
  if (kw <= 0) kw = gaussianKsizeFromSigma(sigmaX);
  if (kh <= 0) kh = gaussianKsizeFromSigma(sigmaY);
  SIMDCV_REQUIRE((kw & 1) && (kh & 1), "GaussianBlur: ksize must be odd");
  const auto kx = getGaussianKernel(kw, sigmaX);
  const auto ky = getGaussianKernel(kh, sigmaY);
  sepFilter2D(src, dst, src.depth(), kx, ky, border, 0.0, path);
}

void Sobel(const Mat& src, Mat& dst, Depth ddepth, int dx, int dy, int ksize,
           double scale, BorderType border, KernelPath path) {
  SIMDCV_REQUIRE(dx >= 0 && dy >= 0 && dx + dy > 0,
                 "Sobel: need at least one derivative order");
  std::vector<float> kx, ky;
  getDerivKernels(kx, ky, dx, dy, ksize, /*normalize=*/false);
  if (scale != 1.0) {
    for (auto& v : kx) v = static_cast<float>(v * scale);
  }
  sepFilter2D(src, dst, ddepth, kx, ky, border, 0.0, path);
}

void filter2D(const Mat& src, Mat& dst, Depth ddepth,
              const std::vector<float>& kernel, int kw, int kh,
              BorderType border, double borderValue) {
  SIMDCV_REQUIRE(!src.empty(), "filter2D: empty source");
  SIMDCV_REQUIRE(src.channels() == 1, "filter2D: single channel only");
  SIMDCV_REQUIRE(src.depth() == Depth::U8 || src.depth() == Depth::F32,
                 "filter2D: source depth must be u8 or f32");
  SIMDCV_REQUIRE(kernel.size() == static_cast<std::size_t>(kw) * kh &&
                     (kw & 1) && (kh & 1),
                 "filter2D: kernel must be odd-sized kw*kh");
  const int rows = src.rows();
  const int cols = src.cols();
  const int rx = kw / 2;
  const int ry = kh / 2;
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(rows, cols, PixelType(ddepth, 1));

  auto sample = [&](int y, int x) -> float {
    const int my = borderInterpolate(y, rows, border);
    const int mx = borderInterpolate(x, cols, border);
    if (my < 0 || mx < 0) return static_cast<float>(borderValue);
    return src.depth() == Depth::U8
               ? static_cast<float>(src.at<std::uint8_t>(my, mx))
               : src.at<float>(my, mx);
  };

  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      float acc = 0.0f;
      for (int j = 0; j < kh; ++j)
        for (int i = 0; i < kw; ++i)
          acc += kernel[static_cast<std::size_t>(j) * kw + i] *
                 sample(y + j - ry, x + i - rx);
      switch (ddepth) {
        case Depth::U8: out.at<std::uint8_t>(y, x) = saturate_cast<std::uint8_t>(acc); break;
        case Depth::S16: out.at<std::int16_t>(y, x) = saturate_cast<std::int16_t>(acc); break;
        default: out.at<float>(y, x) = acc; break;
      }
    }
  }
  dst = std::move(out);
}

}  // namespace simdcv::imgproc
