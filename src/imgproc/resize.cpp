// Resize implementation.
//
// Bilinear is two-pass: a gather-based horizontal interpolation into u16
// (fixed point, 7-bit weights) or f32 row buffers, then a SIMD vertical
// blend of the two cached rows. The horizontal pass is irregular (gathers),
// which is exactly why resize was among the hardest kernels for 2012
// auto-vectorizers; the vertical blend is where the SIMD win lives. AUTO and
// ScalarNoVec share the gather loop (it does not vectorize either way) and
// the f32 blend; the u16 blend has a vectorizer-off build.
#include "imgproc/resize.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/saturate.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/fixedpoint.hpp"
#include "simd/neon_compat.hpp"

namespace simdcv::imgproc {

namespace {

constexpr int kWeightBits = 7;                    // wx, wy in [0, 128]
constexpr int kWeightOne = 1 << kWeightBits;      // 128
constexpr int kRound = 1 << (2 * kWeightBits - 1);  // 8192

struct LinearMap {
  std::vector<int> lo, hi;   // clamped source indices per output coord
  std::vector<int> w;        // weight of `hi` (fixed point, 0..128)
  std::vector<float> wf;     // same weight in float
};

LinearMap buildMap(int dstLen, int srcLen) {
  LinearMap m;
  m.lo.resize(static_cast<std::size_t>(dstLen));
  m.hi.resize(static_cast<std::size_t>(dstLen));
  m.w.resize(static_cast<std::size_t>(dstLen));
  m.wf.resize(static_cast<std::size_t>(dstLen));
  const double scale = static_cast<double>(srcLen) / dstLen;
  for (int d = 0; d < dstLen; ++d) {
    double s = (d + 0.5) * scale - 0.5;
    if (s < 0) s = 0;
    int s0 = static_cast<int>(s);
    double frac = s - s0;
    if (s0 >= srcLen - 1) {
      s0 = srcLen - 1;
      frac = 0;
    }
    m.lo[static_cast<std::size_t>(d)] = s0;
    m.hi[static_cast<std::size_t>(d)] = std::min(s0 + 1, srcLen - 1);
    m.w[static_cast<std::size_t>(d)] = cvRound(frac * kWeightOne);
    m.wf[static_cast<std::size_t>(d)] = static_cast<float>(frac);
  }
  return m;
}

// ---- vertical blends (the SIMD-friendly pass) --------------------------------
// u16 rows r0/r1 hold horizontal results scaled by kWeightOne (max 32640).
// The x86 arms are the fixed-point family's width-generic vblendU16; the
// scalar arms are its fx_autovec / fx_novec builds.
void vblendU16Neon(const std::uint16_t* r0, const std::uint16_t* r1,
                   std::uint8_t* dst, int n, int wy) {
  const uint16x4_t w0 = vdup_n_u16(static_cast<std::uint16_t>(kWeightOne - wy));
  const uint16x4_t w1 = vdup_n_u16(static_cast<std::uint16_t>(wy));
  const uint32x4_t rnd = vdupq_n_u32(kRound);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint16x8_t a = vld1q_u16(r0 + i);
    const uint16x8_t b = vld1q_u16(r1 + i);
    uint32x4_t lo = vmlal_u16(rnd, vget_low_u16(a), w0);
    lo = vmlal_u16(lo, vget_low_u16(b), w1);
    uint32x4_t hi = vmlal_u16(rnd, vget_high_u16(a), w0);
    hi = vmlal_u16(hi, vget_high_u16(b), w1);
    const uint16x8_t m = vcombine_u16(vshrn_n_u32(lo, 2 * kWeightBits),
                                      vshrn_n_u32(hi, 2 * kWeightBits));
    vst1_u8(dst + i, vmovn_u16(m));
  }
  if (i < n) fx_autovec::vblendU16(r0 + i, r1 + i, dst + i, n - i, wy);
}

void vblendF32Scalar(const float* r0, const float* r1, float* dst, int n,
                     float wy) {
  const float w0 = 1.0f - wy;
  for (int i = 0; i < n; ++i) dst[i] = r0[i] * w0 + r1[i] * wy;
}

// Hand arms: the blend is a two-tap colConv (taps 1 - wy, wy). Its vector
// blocks compute k0*r0 + k1*r1, the scalar blend's exact expression, but its
// scalar tail starts from 0.0f and would turn a -0 blend into +0, so it gets
// only whole 16-float blocks (a lane multiple at every width).
void vblendF32Hand(const float* r0, const float* r1, float* dst, int n,
                   float wy, KernelPath p) {
  const float k[2] = {1.0f - wy, wy};
  const float* rows[2] = {r0, r1};
  const int nv = n & ~15;
  detail::colConvFor(p)(rows, dst, nv, k, 2);
  vblendF32Scalar(r0 + nv, r1 + nv, dst + nv, n - nv, wy);
}

// ---- nearest ------------------------------------------------------------------
void resizeNearest(const Mat& src, Mat& dst) {
  const int ch = src.channels();
  const std::size_t esz = src.elemSize1();
  const double sx = static_cast<double>(src.cols()) / dst.cols();
  const double sy = static_cast<double>(src.rows()) / dst.rows();
  std::vector<int> xmap(static_cast<std::size_t>(dst.cols()));
  for (int x = 0; x < dst.cols(); ++x)
    xmap[static_cast<std::size_t>(x)] =
        std::min(static_cast<int>(x * sx), src.cols() - 1);
  for (int y = 0; y < dst.rows(); ++y) {
    const int srcY = std::min(static_cast<int>(y * sy), src.rows() - 1);
    const std::uint8_t* s = src.ptr<std::uint8_t>(srcY);
    std::uint8_t* d = dst.ptr<std::uint8_t>(y);
    for (int x = 0; x < dst.cols(); ++x) {
      std::memcpy(d + static_cast<std::size_t>(x) * ch * esz,
                  s + static_cast<std::size_t>(xmap[static_cast<std::size_t>(x)]) * ch * esz,
                  ch * esz);
    }
  }
}

// ---- bilinear ------------------------------------------------------------------
// The horizontal pass fills two cached rows of T keyed by source row; each
// output row is the vertical blend of the two it needs.
template <class T, class HRow, class Blend>
void resizeLinear(const Mat& src, Mat& dst, int dw, HRow hrow, Blend blend) {
  const LinearMap ym = buildMap(dst.rows(), src.rows());
  std::vector<T> rowBuf[2] = {std::vector<T>(static_cast<std::size_t>(dw)),
                              std::vector<T>(static_cast<std::size_t>(dw))};
  int cached[2] = {-1, -1};
  for (int y = 0; y < dst.rows(); ++y) {
    const auto yi = static_cast<std::size_t>(y);
    const int y0 = ym.lo[yi], y1 = ym.hi[yi];
    for (int need : {y0, y1}) {
      if (cached[0] != need && cached[1] != need) {
        const int slot = (cached[0] != y0 && cached[0] != y1) ? 0 : 1;
        hrow(need, rowBuf[slot].data());
        cached[slot] = need;
      }
    }
    blend(cached[0] == y0 ? rowBuf[0].data() : rowBuf[1].data(),
          cached[0] == y1 ? rowBuf[0].data() : rowBuf[1].data(), y, ym.w[yi],
          ym.wf[yi]);
  }
}

// u8 C1 / C3: u16 rows scaled by 128.
void resizeLinearU8(const Mat& src, Mat& dst, KernelPath p) {
  const int ch = src.channels();
  const int dw = dst.cols() * ch;
  const LinearMap xm = buildMap(dst.cols(), src.cols());
  auto hrow = [&](int srcRow, std::uint16_t* out) {
    const std::uint8_t* s = src.ptr<std::uint8_t>(srcRow);
    for (int x = 0; x < dst.cols(); ++x) {
      const int lo = xm.lo[static_cast<std::size_t>(x)] * ch;
      const int hi = xm.hi[static_cast<std::size_t>(x)] * ch;
      const int w1 = xm.w[static_cast<std::size_t>(x)];
      const int w0 = kWeightOne - w1;
      for (int k = 0; k < ch; ++k) {
        out[x * ch + k] =
            static_cast<std::uint16_t>(s[lo + k] * w0 + s[hi + k] * w1);
      }
    }
  };
  auto blend = [&](const std::uint16_t* r0, const std::uint16_t* r1, int y,
                   int wy, float) {
    std::uint8_t* d = dst.ptr<std::uint8_t>(y);
    switch (p) {
      case KernelPath::Avx512: fx_avx512::vblendU16(r0, r1, d, dw, wy); break;
      case KernelPath::Avx2: fx_avx2::vblendU16(r0, r1, d, dw, wy); break;
      case KernelPath::Sse2: fx_sse2::vblendU16(r0, r1, d, dw, wy); break;
      case KernelPath::Neon: vblendU16Neon(r0, r1, d, dw, wy); break;
      case KernelPath::ScalarNoVec: fx_novec::vblendU16(r0, r1, d, dw, wy); break;
      default: fx_autovec::vblendU16(r0, r1, d, dw, wy); break;
    }
  };
  resizeLinear<std::uint16_t>(src, dst, dw, hrow, blend);
}

// f32 C1.
void resizeLinearF32(const Mat& src, Mat& dst, KernelPath p) {
  const int dw = dst.cols();
  const LinearMap xm = buildMap(dst.cols(), src.cols());
  auto hrow = [&](int srcRow, float* out) {
    const float* s = src.ptr<float>(srcRow);
    for (int x = 0; x < dw; ++x) {
      const float w1 = xm.wf[static_cast<std::size_t>(x)];
      out[x] = s[xm.lo[static_cast<std::size_t>(x)]] * (1.0f - w1) +
               s[xm.hi[static_cast<std::size_t>(x)]] * w1;
    }
  };
  const bool hand = p == KernelPath::Avx512 || p == KernelPath::Avx2 ||
                    p == KernelPath::Sse2 || p == KernelPath::Neon;
  auto blend = [&](const float* r0, const float* r1, int y, int, float wy) {
    if (hand)
      vblendF32Hand(r0, r1, dst.ptr<float>(y), dw, wy, p);
    else
      vblendF32Scalar(r0, r1, dst.ptr<float>(y), dw, wy);
  };
  resizeLinear<float>(src, dst, dw, hrow, blend);
}

}  // namespace

void resize(const Mat& src, Mat& dst, Size dsize, Interp interp,
            KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "resize: empty source");
  SIMDCV_REQUIRE(dsize.width > 0 && dsize.height > 0, "resize: bad dsize");
  const bool u8ok = src.depth() == Depth::U8 &&
                    (src.channels() == 1 || src.channels() == 3);
  const bool f32ok = src.depth() == Depth::F32 && src.channels() == 1;
  SIMDCV_REQUIRE(u8ok || f32ok, "resize: u8c1/u8c3/f32c1 only");

  const KernelPath p = resolvePath(path);
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(dsize.height, dsize.width, src.type());

  if (interp == Interp::Nearest) {
    resizeNearest(src, out);
  } else if (src.depth() == Depth::U8) {
    resizeLinearU8(src, out, p);
  } else {
    resizeLinearF32(src, out, p);
  }
  dst = std::move(out);
}

}  // namespace simdcv::imgproc
