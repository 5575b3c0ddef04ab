// Fixed-point separable filtering: the integer kernel tier.
//
// The float engine (filter.cpp) widens every 8-bit pixel to float32, spending
// 4x the lane width and 4x the ring-buffer traffic on data whose information
// content is 8 bits. The fixed-point tier keeps the pipeline in 8/16-bit
// lanes end to end — Limonova et al.'s observation that pure-8U/16S
// saturating SIMD doubles-to-quadruples throughput on memory-bound sizes:
//
//   Gaussian 8U -> 8U  taps quantized to Q8 (sum exactly 256), horizontal
//                      pass accumulates u16 and rounds back to u8 with
//                      (+128)>>8, vertical pass repeats the same u16
//                      accumulate + round on the u8 intermediates. With
//                      sum(K) == 256 the accumulator peaks at
//                      255*256 + 128 = 65408 < 2^16, so the 16-bit lanes are
//                      wrap-free by construction (asserted, not observed).
//   Sobel    8U -> 16S taps are exact small integers; |out| <=
//                      255*sum|kx|*sum|ky| <= 24480 < 2^15 for ksize 3/5, so
//                      all arithmetic is exact wrap-free i16 and the result
//                      is BIT-EXACT with the float engine (every intermediate
//                      is an integer below 2^24).
//
// Exactness contract (enforced by the fixedpt.* check entries and DESIGN.md
// section 14): all KernelPaths are bit-exact with each other; the Gaussian is
// within +/-1 LSB of the float engine run with the same quantized taps (each
// of the two rounding stages contributes <= 0.5, and the final integer
// rounding of both sides adds < 0.5 — so the pre-round difference is < 1.5
// and the rounded outputs differ by at most 1); the Sobel is bit-exact with
// the float engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/mat.hpp"
#include "imgproc/border.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

/// Quantize a normalized (sum ~1) separable kernel to Q8 taps that sum to
/// EXACTLY 256: round each tap to nearest and fold the residual into the
/// center tap. The exact-sum property is what makes the u16 accumulator
/// wrap-free (255*256 + 128 < 2^16) and the constant-border row reproduce the
/// border value exactly. Taps are u16 because a near-delta kernel quantizes
/// to a single tap of 256, which does not fit u8.
std::vector<std::uint16_t> quantizeKernelQ8(const std::vector<float>& k);

/// Fixed-point separable filter, U8C1 -> U8C1, Q8 taps (each row pass rounds
/// back to u8 with round-half-up). Requires sum(kx) == sum(ky) == 256.
void sepFilter2DFxU8(const Mat& src, Mat& dst,
                     const std::vector<std::uint16_t>& kx,
                     const std::vector<std::uint16_t>& ky,
                     BorderType border = BorderType::Reflect101,
                     int borderValue = 0,
                     KernelPath path = KernelPath::Default);

/// Fixed-point separable filter, U8C1 -> S16C1, exact integer taps. Requires
/// 255 * sum|kx| * sum|ky| <= 32767 (the analytic wrap-free bound for the
/// 16-bit accumulator); within it every path is exact, no rounding at all.
void sepFilter2DFxS16(const Mat& src, Mat& dst,
                      const std::vector<std::int16_t>& kx,
                      const std::vector<std::int16_t>& ky,
                      BorderType border = BorderType::Reflect101,
                      int borderValue = 0,
                      KernelPath path = KernelPath::Default);

/// Fixed-point Gaussian blur: U8C1 -> U8C1 through Q8-quantized taps.
/// ksize components may be 0 (derived from sigma); sigmaY == 0 means sigmaX.
/// Within +/-1 LSB of GaussianBlur() run with the quantized taps; typically
/// 2-3x faster on SSE2/AVX2 at memory-bound sizes (benchmark family B6).
void GaussianBlurFx(const Mat& src, Mat& dst, Size ksize, double sigmaX,
                    double sigmaY = 0.0,
                    BorderType border = BorderType::Reflect101,
                    KernelPath path = KernelPath::Default);

/// Fixed-point Sobel: U8C1 -> S16C1, aperture 3 or 5 (larger apertures break
/// the 16-bit accumulator bound and are rejected). Bit-exact with
/// Sobel(..., Depth::S16, ...) — the float engine computes the same integers.
void SobelFx(const Mat& src, Mat& dst, int dx, int dy, int ksize = 3,
             BorderType border = BorderType::Reflect101,
             KernelPath path = KernelPath::Default);

// ---- per-path row/column workers -------------------------------------------
// Same shape as the float engine's rowConv/colConv, in integer lanes. All
// paths compute the identical function (wrap-free by the bounds above), so
// cross-path outputs are bit-exact. Exposed for the micro-benchmarks and the
// graph fused executor. Also here: cvtColor's 14-bit gray row (hand arms)
// and resize's 7-bit u16 vertical blend.

namespace detail {

/// Horizontal u8 pass: out[i] = (sum_j k[j]*padded[i+j] + 128) >> 8, u16 acc.
using FxRowU8Fn = void (*)(const std::uint8_t* padded, std::uint8_t* out,
                           int width, const std::uint16_t* k, int ksize);
/// Vertical u8 pass: same accumulate/round over kh buffered u8 rows.
using FxColU8Fn = void (*)(const std::uint8_t* const* rows, std::uint8_t* out,
                           int width, const std::uint16_t* k, int ksize);
/// Horizontal s16 pass: out[i] = sum_j k[j]*padded[i+j], exact i16.
using FxRowS16Fn = void (*)(const std::uint8_t* padded, std::int16_t* out,
                            int width, const std::int16_t* k, int ksize);
/// Vertical s16 pass: out[i] = sum_r k[r]*rows[r][i], exact i16.
using FxColS16Fn = void (*)(const std::int16_t* const* rows, std::int16_t* out,
                            int width, const std::int16_t* k, int ksize);

FxRowU8Fn fxRowU8For(KernelPath path);
FxColU8Fn fxColU8For(KernelPath path);
FxRowS16Fn fxRowS16For(KernelPath path);
FxColS16Fn fxColS16For(KernelPath path);

}  // namespace detail

namespace fx_novec {
void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy);
}  // namespace fx_novec
namespace fx_autovec {
void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy);
}  // namespace fx_autovec
namespace fx_sse2 {
void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder);
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy);
}  // namespace fx_sse2
namespace fx_avx2 {
void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder);
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy);
}  // namespace fx_avx2
namespace fx_avx512 {
void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder);
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy);
}  // namespace fx_avx512
namespace fx_neon {
void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize);
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize);
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder);
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy);
}  // namespace fx_neon

}  // namespace simdcv::imgproc
