// Fixed-level thresholding — the paper's benchmark 2.
//
// Semantics follow cv::threshold:
//   Binary     : dst = src >  thresh ? maxval : 0
//   BinaryInv  : dst = src >  thresh ? 0      : maxval
//   Trunc      : dst = src >  thresh ? thresh : src
//   ToZero     : dst = src >  thresh ? src    : 0
//   ToZeroInv  : dst = src >  thresh ? 0      : src
// For U8 inputs `thresh` is floored and `maxval` rounded+saturated to [0,255]
// first (as OpenCV does), so all paths agree bit-exactly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

enum class ThresholdType : std::uint8_t {
  Binary,
  BinaryInv,
  Trunc,
  ToZero,
  ToZeroInv,
};

const char* toString(ThresholdType t) noexcept;

/// Apply a fixed threshold to every element (any channel count; U8, S16 and
/// F32 depths). Returns the threshold actually used (after U8 quantization).
double threshold(const Mat& src, Mat& dst, double thresh, double maxval,
                 ThresholdType type, KernelPath path = KernelPath::Default);

// Per-path U8 and S16 kernel selectors, shared by the dispatcher above and
// fused pipelines (graph_fused.cpp) so both resolve a path to the identical
// kernel.
namespace detail {
using ThreshU8Fn = void (*)(const std::uint8_t* src, std::uint8_t* dst,
                            std::size_t n, std::uint8_t thresh,
                            std::uint8_t maxval, ThresholdType type);
using ThreshS16Fn = void (*)(const std::int16_t* src, std::int16_t* dst,
                             std::size_t n, std::int16_t thresh,
                             std::int16_t maxval, ThresholdType type);
ThreshU8Fn threshU8For(KernelPath path);
ThreshS16Fn threshS16For(KernelPath path);
}  // namespace detail

// Flat-range per-path kernels, exposed for benchmarks/tests.
namespace autovec {
void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type);
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type);
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type);
}  // namespace autovec
namespace novec {
void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type);
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type);
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type);
}  // namespace novec
namespace sse2 {
void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type);
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type);
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type);
}  // namespace sse2
namespace avx2 {
void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type);
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type);
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type);
}  // namespace avx2
namespace avx512 {
void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type);
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type);
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type);
}  // namespace avx512
namespace neon {
void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type);
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type);
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type);
}  // namespace neon

}  // namespace simdcv::imgproc
