// Resize implementation.
//
// Bilinear is two-pass: a gather-based horizontal interpolation into u16
// (fixed point, 7-bit weights) or f32 row buffers, then a SIMD vertical
// blend of the two cached rows. The horizontal pass is irregular (gathers),
// which is exactly why resize was among the hardest kernels for 2012
// auto-vectorizers; the vertical blend is where the SIMD win lives.
// AUTO and ScalarNoVec share the scalar implementation here (the gather
// loop does not vectorize either way).
#include "imgproc/resize.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/saturate.hpp"
#include "simd/neon_compat.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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
void vblendU16Scalar(const std::uint16_t* r0, const std::uint16_t* r1,
                     std::uint8_t* dst, int n, int wy) {
  const int w0 = kWeightOne - wy;
  for (int i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(
        (r0[i] * w0 + r1[i] * wy + kRound) >> (2 * kWeightBits));
  }
}

#if defined(__SSE2__)
void vblendU16Sse2(const std::uint16_t* r0, const std::uint16_t* r1,
                   std::uint8_t* dst, int n, int wy) {
  const short w0 = static_cast<short>(kWeightOne - wy);
  const short w1 = static_cast<short>(wy);
  const __m128i coef = _mm_set_epi16(w1, w0, w1, w0, w1, w0, w1, w0);
  const __m128i rnd = _mm_set1_epi32(kRound);
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i out16[2];
    for (int half = 0; half < 2; ++half) {
      const __m128i a = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(r0 + i + half * 8));
      const __m128i b = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(r1 + i + half * 8));
      // Interleave (a,b) pairs; PMADDWD computes a*w0 + b*w1 per 32-bit lane.
      const __m128i lo = _mm_madd_epi16(_mm_unpacklo_epi16(a, b), coef);
      const __m128i hi = _mm_madd_epi16(_mm_unpackhi_epi16(a, b), coef);
      out16[half] =
          _mm_packs_epi32(_mm_srai_epi32(_mm_add_epi32(lo, rnd), 2 * kWeightBits),
                          _mm_srai_epi32(_mm_add_epi32(hi, rnd), 2 * kWeightBits));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packus_epi16(out16[0], out16[1]));
  }
  if (i < n) vblendU16Scalar(r0 + i, r1 + i, dst + i, n - i, wy);
}
#endif

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
  if (i < n) vblendU16Scalar(r0 + i, r1 + i, dst + i, n - i, wy);
}

void vblendF32Scalar(const float* r0, const float* r1, float* dst, int n,
                     float wy) {
  const float w0 = 1.0f - wy;
  for (int i = 0; i < n; ++i) dst[i] = r0[i] * w0 + r1[i] * wy;
}

#if defined(__SSE2__)
void vblendF32Sse2(const float* r0, const float* r1, float* dst, int n,
                   float wy) {
  const __m128 w0 = _mm_set1_ps(1.0f - wy);
  const __m128 w1 = _mm_set1_ps(wy);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i,
                  _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(r0 + i), w0),
                             _mm_mul_ps(_mm_loadu_ps(r1 + i), w1)));
  }
  if (i < n) vblendF32Scalar(r0 + i, r1 + i, dst + i, n - i, wy);
}
#endif

void vblendF32Neon(const float* r0, const float* r1, float* dst, int n,
                   float wy) {
  const float w0 = 1.0f - wy;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t acc = vmulq_n_f32(vld1q_f32(r0 + i), w0);
    acc = vmlaq_n_f32(acc, vld1q_f32(r1 + i), wy);
    vst1q_f32(dst + i, acc);
  }
  if (i < n) vblendF32Scalar(r0 + i, r1 + i, dst + i, n - i, wy);
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

// ---- bilinear u8 (C1 / C3) ------------------------------------------------------
void resizeLinearU8(const Mat& src, Mat& dst, KernelPath p) {
  const int ch = src.channels();
  const int dw = dst.cols() * ch;
  const LinearMap xm = buildMap(dst.cols(), src.cols());
  const LinearMap ym = buildMap(dst.rows(), src.rows());

  // Two cached horizontal rows (u16, scaled by 128) keyed by source row.
  std::vector<std::uint16_t> rowBuf[2] = {
      std::vector<std::uint16_t>(static_cast<std::size_t>(dw)),
      std::vector<std::uint16_t>(static_cast<std::size_t>(dw))};
  int cached[2] = {-1, -1};

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

  for (int y = 0; y < dst.rows(); ++y) {
    const int y0 = ym.lo[static_cast<std::size_t>(y)];
    const int y1 = ym.hi[static_cast<std::size_t>(y)];
    const int wy = ym.w[static_cast<std::size_t>(y)];
    // Fill/reuse the two row caches.
    for (int need : {y0, y1}) {
      if (cached[0] != need && cached[1] != need) {
        const int slot = (cached[0] != y0 && cached[0] != y1) ? 0 : 1;
        hrow(need, rowBuf[slot].data());
        cached[slot] = need;
      }
    }
    const std::uint16_t* r0 =
        cached[0] == y0 ? rowBuf[0].data() : rowBuf[1].data();
    const std::uint16_t* r1 =
        cached[0] == y1 ? rowBuf[0].data() : rowBuf[1].data();
    std::uint8_t* d = dst.ptr<std::uint8_t>(y);
    switch (p) {
#if defined(__SSE2__)
      case KernelPath::Sse2: vblendU16Sse2(r0, r1, d, dw, wy); break;
#endif
      case KernelPath::Neon: vblendU16Neon(r0, r1, d, dw, wy); break;
      default: vblendU16Scalar(r0, r1, d, dw, wy); break;
    }
  }
}

// ---- bilinear f32 (C1) ----------------------------------------------------------
void resizeLinearF32(const Mat& src, Mat& dst, KernelPath p) {
  const int dw = dst.cols();
  const LinearMap xm = buildMap(dst.cols(), src.cols());
  const LinearMap ym = buildMap(dst.rows(), src.rows());
  std::vector<float> rowBuf[2] = {
      std::vector<float>(static_cast<std::size_t>(dw)),
      std::vector<float>(static_cast<std::size_t>(dw))};
  int cached[2] = {-1, -1};

  auto hrow = [&](int srcRow, float* out) {
    const float* s = src.ptr<float>(srcRow);
    for (int x = 0; x < dw; ++x) {
      const float w1 = xm.wf[static_cast<std::size_t>(x)];
      out[x] = s[xm.lo[static_cast<std::size_t>(x)]] * (1.0f - w1) +
               s[xm.hi[static_cast<std::size_t>(x)]] * w1;
    }
  };

  for (int y = 0; y < dst.rows(); ++y) {
    const int y0 = ym.lo[static_cast<std::size_t>(y)];
    const int y1 = ym.hi[static_cast<std::size_t>(y)];
    const float wy = ym.wf[static_cast<std::size_t>(y)];
    for (int need : {y0, y1}) {
      if (cached[0] != need && cached[1] != need) {
        const int slot = (cached[0] != y0 && cached[0] != y1) ? 0 : 1;
        hrow(need, rowBuf[slot].data());
        cached[slot] = need;
      }
    }
    const float* r0 = cached[0] == y0 ? rowBuf[0].data() : rowBuf[1].data();
    const float* r1 = cached[0] == y1 ? rowBuf[0].data() : rowBuf[1].data();
    float* d = dst.ptr<float>(y);
    switch (p) {
#if defined(__SSE2__)
      case KernelPath::Sse2: vblendF32Sse2(r0, r1, d, dw, wy); break;
#endif
      case KernelPath::Neon: vblendF32Neon(r0, r1, d, dw, wy); break;
      default: vblendF32Scalar(r0, r1, d, dw, wy); break;
    }
  }
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

  const KernelPath p = resolvePath(path, /*widest=*/KernelPath::Sse2);
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
