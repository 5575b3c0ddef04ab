// Edge detection (the paper's benchmark 5): Sobel x/y gradients, L1 gradient
// magnitude, binary threshold.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/mat.hpp"
#include "imgproc/border.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

/// L1 gradient magnitude: dst(u8) = saturate(|gx| + |gy|), with saturating
/// s16 intermediates (all paths agree bit-exactly for u8 output).
void gradientMagnitude(const Mat& gx, const Mat& gy, Mat& dst,
                       KernelPath path = KernelPath::Default);

/// Full pipeline: Sobel(dx=1), Sobel(dy=1), |gx|+|gy|, threshold > thresh
/// to 255/0. Output is a U8 binary edge map. Runs graph::makeEdgeGraph on the
/// graph executor (defined in src/graph, so callers link simdcv_graph);
/// bit-exact with edgeDetectUnfused on every KernelPath and thread count.
/// Source must be single-channel u8 or f32; ksize odd and >= 3.
void edgeDetect(const Mat& src, Mat& dst, double thresh, int ksize = 3,
                BorderType border = BorderType::Reflect101,
                KernelPath path = KernelPath::Default);

/// Reference 4-pass pipeline (two Sobel passes, magnitude, threshold through
/// whole-image intermediates). Kept as the differential oracle edgeDetect is
/// checked against.
void edgeDetectUnfused(const Mat& src, Mat& dst, double thresh, int ksize = 3,
                       BorderType border = BorderType::Reflect101,
                       KernelPath path = KernelPath::Default);

// The per-path magnitude dispatch shared with the graph executor lives in
// "imgproc/edge_detail.hpp"; they are not part of the public API.

// Flat-range magnitude kernels per path (for benchmarks/tests).
namespace autovec {
void magnitudeS16(const std::int16_t* gx, const std::int16_t* gy,
                  std::uint8_t* dst, std::size_t n);
}
namespace novec {
void magnitudeS16(const std::int16_t* gx, const std::int16_t* gy,
                  std::uint8_t* dst, std::size_t n);
}
namespace sse2 {
void magnitudeS16(const std::int16_t* gx, const std::int16_t* gy,
                  std::uint8_t* dst, std::size_t n);
}
namespace avx2 {
void magnitudeS16(const std::int16_t* gx, const std::int16_t* gy,
                  std::uint8_t* dst, std::size_t n);
}
namespace avx512 {
void magnitudeS16(const std::int16_t* gx, const std::int16_t* gy,
                  std::uint8_t* dst, std::size_t n);
}
namespace neon {
void magnitudeS16(const std::int16_t* gx, const std::int16_t* gy,
                  std::uint8_t* dst, std::size_t n);
}

}  // namespace simdcv::imgproc
