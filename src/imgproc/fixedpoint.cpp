// Fixed-point separable filters (u8->u8 Q8 smoothing and u8->s16 exact
// derivatives), the Q8 kernel quantizer, and the GaussianBlurFx / SobelFx
// entry points.
//
// Both filters run the separable ring engine (ring_engine.hpp) that
// sepFilter2D and erode/dilate run; this file supplies the integer row and
// column steps and the wrap-free assertions. The difference from the float
// engine is the ring element type: u8 intermediates (Gaussian, with per-pass
// (+128)>>8 rounding) or i16 intermediates (Sobel, exact), instead of
// float32. That is the whole point — a 5x5 fx Gaussian band touches 1/4 the
// ring bytes of its float twin and runs 16-wide per 128-bit op.
#include "imgproc/fixedpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/fixedpt.hpp"
#include "imgproc/kernels.hpp"
#include "imgproc/ring_engine.hpp"

namespace simdcv::imgproc {

namespace detail {

FxRowU8Fn fxRowU8For(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &fx_avx512::rowConvU8;
    case KernelPath::Avx2: return &fx_avx2::rowConvU8;
    case KernelPath::Sse2: return &fx_sse2::rowConvU8;
    case KernelPath::Neon: return &fx_neon::rowConvU8;
    case KernelPath::ScalarNoVec: return &fx_novec::rowConvU8;
    default: return &fx_autovec::rowConvU8;
  }
}

FxColU8Fn fxColU8For(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &fx_avx512::colConvU8;
    case KernelPath::Avx2: return &fx_avx2::colConvU8;
    case KernelPath::Sse2: return &fx_sse2::colConvU8;
    case KernelPath::Neon: return &fx_neon::colConvU8;
    case KernelPath::ScalarNoVec: return &fx_novec::colConvU8;
    default: return &fx_autovec::colConvU8;
  }
}

FxRowS16Fn fxRowS16For(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &fx_avx512::rowConvS16;
    case KernelPath::Avx2: return &fx_avx2::rowConvS16;
    case KernelPath::Sse2: return &fx_sse2::rowConvS16;
    case KernelPath::Neon: return &fx_neon::rowConvS16;
    case KernelPath::ScalarNoVec: return &fx_novec::rowConvS16;
    default: return &fx_autovec::rowConvS16;
  }
}

FxColS16Fn fxColS16For(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &fx_avx512::colConvS16;
    case KernelPath::Avx2: return &fx_avx2::colConvS16;
    case KernelPath::Sse2: return &fx_sse2::colConvS16;
    case KernelPath::Neon: return &fx_neon::colConvS16;
    case KernelPath::ScalarNoVec: return &fx_novec::colConvS16;
    default: return &fx_autovec::colConvS16;
  }
}

}  // namespace detail

std::vector<std::uint16_t> quantizeKernelQ8(const std::vector<float>& k) {
  SIMDCV_REQUIRE(!k.empty() && (k.size() & 1),
                 "quantizeKernelQ8: kernel must have odd length");
  const int n = static_cast<int>(k.size());
  std::vector<int> q(static_cast<std::size_t>(n));
  int sum = 0;
  for (int i = 0; i < n; ++i) {
    q[static_cast<std::size_t>(i)] =
        static_cast<int>(std::lround(static_cast<double>(k[static_cast<std::size_t>(i)]) * 256.0));
    sum += q[static_cast<std::size_t>(i)];
  }
  // Per-tap rounding moves the sum by less than n/2; fold the residual into
  // the center (largest) tap so sum(q) == 256 exactly. Symmetric inputs stay
  // symmetric (only the center moves).
  q[static_cast<std::size_t>(n / 2)] += 256 - sum;
  std::vector<std::uint16_t> out(static_cast<std::size_t>(n));
  int check = 0;
  for (int i = 0; i < n; ++i) {
    const int v = q[static_cast<std::size_t>(i)];
    SIMDCV_REQUIRE(v >= 0 && v <= 256,
                   "quantizeKernelQ8: tap out of [0, 256] — kernel is not a "
                   "normalized smoothing kernel");
    out[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(v);
    check += v;
  }
  SIMDCV_REQUIRE(check == 256, "quantizeKernelQ8: taps must sum to 256");
  return out;
}

namespace {

// Both fixed-point filters: u8 source rows, Inter ring rows (u8 or i16),
// Inter output, through the shared ring engine. rowFn/colFn are the per-path
// workers.
template <typename Inter, typename K, typename RowFn, typename ColFn>
void fxFilter(const Mat& src, Mat& dst, const std::vector<K>& kx,
              const std::vector<K>& ky, BorderType border, int borderValue,
              RowFn rowFn, ColFn colFn, const char* kernelName, KernelPath p) {
  const int rows = src.rows(), width = src.cols();
  const int kw = static_cast<int>(kx.size()), kh = static_cast<int>(ky.size());
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(rows, width, PixelType(kDepthOf<Inter>, 1));
  ring::runBanded<Inter>(
      kernelName, p,
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(width) *
          (1 + sizeof(Inter)),
      {rows, width, kw, kh, border}, core::fxSatU8(borderValue),
      [&](int m, std::uint8_t* d) {
        std::memcpy(d, src.ptr<std::uint8_t>(m),
                    static_cast<std::size_t>(width));
      },
      [&](const std::uint8_t* padded, Inter* o) {
        rowFn(padded, o, width, kx.data(), kw);
      },
      [&](const Inter* const* taps, int y, Inter*) {
        colFn(taps, out.ptr<Inter>(y), width, ky.data(), kh);
      });
  dst = std::move(out);
}

void requireFxSource(const Mat& src, const std::vector<std::size_t>& ksizes,
                     const char* what) {
  SIMDCV_REQUIRE(!src.empty(), "fixed-point filter: empty source");
  SIMDCV_REQUIRE(src.type() == U8C1, "fixed-point filter: u8c1 source only");
  for (std::size_t n : ksizes)
    SIMDCV_REQUIRE(n >= 1 && (n & 1), what);
}

}  // namespace

void sepFilter2DFxU8(const Mat& src, Mat& dst,
                     const std::vector<std::uint16_t>& kx,
                     const std::vector<std::uint16_t>& ky, BorderType border,
                     int borderValue, KernelPath path) {
  requireFxSource(src, {kx.size(), ky.size()},
                  "sepFilter2DFxU8: kernels must have odd length");
  // Analytic wrap-free assertion for the 16-bit accumulator: with
  // sum(k) == 256 the horizontal/vertical sums peak at 255*256 + 128 =
  // 65408 < 2^16. This is the exactness DERIVATION, checked on every call —
  // not an observed property of some test inputs.
  for (const auto* k : {&kx, &ky}) {
    unsigned sum = 0;
    for (std::uint16_t t : *k) sum += t;
    SIMDCV_REQUIRE(sum == 256,
                   "sepFilter2DFxU8: taps must sum to exactly 256 (Q8)");
  }
  const KernelPath p = resolvePath(path);
  fxFilter<std::uint8_t>(src, dst, kx, ky, border, borderValue,
                         detail::fxRowU8For(p), detail::fxColU8For(p),
                         "sepFilter2DFx8u", p);
}

void sepFilter2DFxS16(const Mat& src, Mat& dst,
                      const std::vector<std::int16_t>& kx,
                      const std::vector<std::int16_t>& ky, BorderType border,
                      int borderValue, KernelPath path) {
  requireFxSource(src, {kx.size(), ky.size()},
                  "sepFilter2DFxS16: kernels must have odd length");
  // Analytic wrap-free assertion: the horizontal pass peaks at 255*sum|kx|
  // and the full result at 255*sum|kx|*sum|ky|; both must fit i16 for every
  // partial sum to be exact (partial sums are bounded by the abs-sums).
  long long sax = 0, say = 0;
  for (std::int16_t t : kx) sax += t < 0 ? -static_cast<long long>(t) : t;
  for (std::int16_t t : ky) say += t < 0 ? -static_cast<long long>(t) : t;
  SIMDCV_REQUIRE(255 * sax <= 32767,
                 "sepFilter2DFxS16: 255*sum|kx| exceeds the i16 accumulator");
  SIMDCV_REQUIRE(255 * sax * std::max(say, 1LL) <= 32767,
                 "sepFilter2DFxS16: 255*sum|kx|*sum|ky| exceeds the i16 "
                 "accumulator");
  const KernelPath p = resolvePath(path);
  fxFilter<std::int16_t>(src, dst, kx, ky, border, borderValue,
                         detail::fxRowS16For(p), detail::fxColS16For(p),
                         "sepFilter2DFx16s", p);
}

void GaussianBlurFx(const Mat& src, Mat& dst, Size ksize, double sigmaX,
                    double sigmaY, BorderType border, KernelPath path) {
  if (sigmaY <= 0) sigmaY = sigmaX;
  int kw = ksize.width;
  int kh = ksize.height;
  if (kw <= 0) kw = gaussianKsizeFromSigma(sigmaX);
  if (kh <= 0) kh = gaussianKsizeFromSigma(sigmaY);
  SIMDCV_REQUIRE((kw & 1) && (kh & 1), "GaussianBlurFx: ksize must be odd");
  const auto kx = quantizeKernelQ8(getGaussianKernel(kw, sigmaX));
  const auto ky = quantizeKernelQ8(getGaussianKernel(kh, sigmaY));
  sepFilter2DFxU8(src, dst, kx, ky, border, 0, path);
}

void SobelFx(const Mat& src, Mat& dst, int dx, int dy, int ksize,
             BorderType border, KernelPath path) {
  SIMDCV_REQUIRE(dx >= 0 && dy >= 0 && dx + dy > 0,
                 "SobelFx: need at least one derivative order");
  SIMDCV_REQUIRE(ksize == 3 || ksize == 5,
                 "SobelFx: aperture must be 3 or 5 (larger apertures break "
                 "the 16-bit accumulator bound)");
  std::vector<float> fx, fy;
  getDerivKernels(fx, fy, dx, dy, ksize, /*normalize=*/false);
  // Derivative taps are exact small integers in float; lround recovers them.
  auto toInt = [](const std::vector<float>& f) {
    std::vector<std::int16_t> k(f.size());
    for (std::size_t i = 0; i < f.size(); ++i)
      k[i] = static_cast<std::int16_t>(std::lround(f[i]));
    return k;
  };
  sepFilter2DFxS16(src, dst, toInt(fx), toInt(fy), border, 0, path);
}

}  // namespace simdcv::imgproc
