// Internal hooks of the edge-detection pipeline: the per-path magnitude
// dispatch shared with the graph executor. Not part of the public API — the
// umbrella header (simdcv.hpp) does not include this file, and its contents
// may change without notice. Include "imgproc/edge.hpp" for the public entry
// points.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/features.hpp"

namespace simdcv::imgproc::detail {

/// Memory traffic of one magnitude output row: two s16 gradient-row reads
/// plus the u8 write. gradientMagnitude's trace accounting, its parallel
/// grain, and the graph executor's per-stage sample all use this helper so
/// the fork decision prices exactly the traffic the profiler reports.
inline constexpr std::uint64_t magnitudeRowBytes(int cols) noexcept {
  return static_cast<std::uint64_t>(cols) * (2 * sizeof(std::int16_t) + 1);
}

/// Per-path flat-range magnitude kernel selector, shared by
/// gradientMagnitude and the graph executor so both resolve a path to the
/// identical kernel (every x86 path instantiates the same width-generic
/// body, so all are bit-exact).
using MagnitudeFn = void (*)(const std::int16_t* gx, const std::int16_t* gy,
                             std::uint8_t* dst, std::size_t n);
MagnitudeFn magnitudeFnFor(KernelPath path);

}  // namespace simdcv::imgproc::detail
