// Internal morphology worker interface. morphology.cpp hosts the per-path
// dispatch, the SSE2 instantiation of morph_kernels.inl and the NEON and
// scalar workers; the AVX2 and AVX-512 instantiations live in
// morphology_avx2.cpp / morphology_avx512.cpp because those TUs alone are
// compiled with the wider -m flags (execution is runtime-guarded by
// resolvePath). This header is the seam between them.
#pragma once

#include <cstdint>

#include "simd/features.hpp"

namespace simdcv::imgproc::detail {

/// Which lattice operation a morphology pass computes. Erode takes the
/// window minimum, dilate the maximum; both passes of the separable rect
/// decomposition use the same mode.
enum class MinMax { Min, Max };

/// The two per-path morphology passes, callable from other engines (the
/// graph fused executor streams them per row). Bit-exact across paths: u8
/// min/max has no rounding freedom.
void morphHorizontalMinMax(const std::uint8_t* padded, std::uint8_t* out,
                           int width, int kw, MinMax mode, KernelPath p);
void morphVerticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                         int width, int kh, MinMax mode, KernelPath p);

}  // namespace simdcv::imgproc::detail

namespace simdcv::imgproc::morph_avx2 {

/// Lane-wise min/max across kh row pointers (vertical pass), 32 px/op.
void verticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                    int width, int kh, detail::MinMax mode);

/// Sliding kw-window min/max over a padded row (horizontal pass), 32 px/op.
void horizontalMinMax(const std::uint8_t* padded, std::uint8_t* out, int width,
                      int kw, detail::MinMax mode);

}  // namespace simdcv::imgproc::morph_avx2

namespace simdcv::imgproc::morph_avx512 {

/// Lane-wise min/max across kh row pointers (vertical pass), 64 px/op.
void verticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                    int width, int kh, detail::MinMax mode);

/// Sliding kw-window min/max over a padded row (horizontal pass), 64 px/op.
void horizontalMinMax(const std::uint8_t* padded, std::uint8_t* out, int width,
                      int kw, detail::MinMax mode);

}  // namespace simdcv::imgproc::morph_avx512
