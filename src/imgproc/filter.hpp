// Separable 2-D filtering: the engine behind GaussianBlur (benchmark 3),
// Sobel (benchmark 4) and edge detection (benchmark 5).
//
// The engine computes in single-precision float: each needed source row is
// converted to float, horizontally convolved with kx into an intermediate
// ring buffer, and output rows are produced by vertically convolving ky over
// the buffered intermediates — O(kw + kh) work per pixel instead of O(kw*kh).
#pragma once

#include <vector>

#include "core/mat.hpp"
#include "imgproc/border.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

/// General separable filter: dst = (kx ⊗ ky) * src.
/// src: U8 or F32, single channel. dst depth: U8, S16 or F32.
void sepFilter2D(const Mat& src, Mat& dst, Depth ddepth,
                 const std::vector<float>& kx, const std::vector<float>& ky,
                 BorderType border = BorderType::Reflect101,
                 double borderValue = 0.0,
                 KernelPath path = KernelPath::Default);

/// Gaussian smoothing. ksize components may be 0 (derived from sigma).
/// sigmaY == 0 means sigmaY = sigmaX. Anisotropic blurs (sigmaX != sigmaY or
/// kw != kh) are supported — the paper's benchmark 3 uses sigma = 1.
void GaussianBlur(const Mat& src, Mat& dst, Size ksize, double sigmaX,
                  double sigmaY = 0.0,
                  BorderType border = BorderType::Reflect101,
                  KernelPath path = KernelPath::Default);

/// Sobel derivative filter of order (dx, dy), aperture `ksize` (odd).
/// Typical use: Sobel(src, dst, Depth::S16, 1, 0) for the x gradient.
void Sobel(const Mat& src, Mat& dst, Depth ddepth, int dx, int dy,
           int ksize = 3, double scale = 1.0,
           BorderType border = BorderType::Reflect101,
           KernelPath path = KernelPath::Default);

/// Dense (non-separable) 2-D correlation with an arbitrary kernel.
/// Scalar reference implementation used by tests to validate the separable
/// engine; kernel is row-major kh x kw.
void filter2D(const Mat& src, Mat& dst, Depth ddepth,
              const std::vector<float>& kernel, int kw, int kh,
              BorderType border = BorderType::Reflect101,
              double borderValue = 0.0);

// ---- low-level row/column convolution workers (per path) -------------------
// Exposed so the micro-benchmarks can time them in isolation.
namespace detail {

/// Horizontal: out[i] = sum_j k[j] * padded[i + j], i in [0, width).
using RowConvFn = void (*)(const float* padded, float* out, int width,
                           const float* k, int ksize);
/// Vertical: out[i] = sum_r k[r] * rows[r][i], i in [0, width).
using ColConvFn = void (*)(const float* const* rows, float* out, int width,
                           const float* k, int ksize);

RowConvFn rowConvFor(KernelPath path);
ColConvFn colConvFor(KernelPath path);

}  // namespace detail

namespace autovec {
void rowConv(const float* padded, float* out, int width, const float* k, int ksize);
void colConv(const float* const* rows, float* out, int width, const float* k, int ksize);
}
namespace novec {
void rowConv(const float* padded, float* out, int width, const float* k, int ksize);
void colConv(const float* const* rows, float* out, int width, const float* k, int ksize);
}
namespace sse2 {
void rowConv(const float* padded, float* out, int width, const float* k, int ksize);
void colConv(const float* const* rows, float* out, int width, const float* k, int ksize);
}
namespace avx2 {
void rowConv(const float* padded, float* out, int width, const float* k, int ksize);
void colConv(const float* const* rows, float* out, int width, const float* k, int ksize);
}
namespace avx512 {
void rowConv(const float* padded, float* out, int width, const float* k, int ksize);
void colConv(const float* const* rows, float* out, int width, const float* k, int ksize);
}
namespace neon {
void rowConv(const float* padded, float* out, int width, const float* k, int ksize);
void colConv(const float* const* rows, float* out, int width, const float* k, int ksize);
}

}  // namespace simdcv::imgproc
