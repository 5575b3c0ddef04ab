// Internal morphology worker interface, shared with the 3x3 median (a rank
// filter on the same u8 min/max). morphology.cpp and median.cpp host the
// per-path dispatch, the SSE2 instantiations of morph_kernels.inl and the
// NEON and scalar workers; the AVX2 and AVX-512 instantiations live in
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

/// The 19-exchange median-of-9 network (Smith, "Implementing median filters
/// in XC4000E FPGAs") over any element type with lane-wise vmin/vmax: u8
/// scalars, VecTraits vectors or NEON registers, so every path runs the
/// identical comparisons. Leaves the median in p[4]. Callers pass their own
/// min/max lambdas, which keeps each instantiation inside its own TU.
template <typename V, typename MinFn, typename MaxFn>
inline V median9(V* p, MinFn vmin, MaxFn vmax) {
  auto exch = [&](int a, int b) {
    const V lo = vmin(p[a], p[b]);
    const V hi = vmax(p[a], p[b]);
    p[a] = lo;
    p[b] = hi;
  };
  exch(1, 2); exch(4, 5); exch(7, 8);
  exch(0, 1); exch(3, 4); exch(6, 7);
  exch(1, 2); exch(4, 5); exch(7, 8);
  exch(0, 3); exch(5, 8); exch(4, 7);
  exch(3, 6); exch(1, 4); exch(2, 5);
  exch(4, 7); exch(4, 2); exch(6, 4);
  exch(4, 2);
  return p[4];
}

}  // namespace simdcv::imgproc::detail

namespace simdcv::imgproc::morph_avx2 {

/// Lane-wise min/max across kh row pointers (vertical pass), 32 px/op.
void verticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                    int width, int kh, detail::MinMax mode);

/// Sliding kw-window min/max over a padded row (horizontal pass), 32 px/op.
void horizontalMinMax(const std::uint8_t* padded, std::uint8_t* out, int width,
                      int kw, detail::MinMax mode);

/// The interior of one 3x3 median row, 32 px per network.
void median3Row(const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, std::uint8_t* dst, int width);

}  // namespace simdcv::imgproc::morph_avx2

namespace simdcv::imgproc::morph_avx512 {

/// Lane-wise min/max across kh row pointers (vertical pass), 64 px/op.
void verticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                    int width, int kh, detail::MinMax mode);

/// Sliding kw-window min/max over a padded row (horizontal pass), 64 px/op.
void horizontalMinMax(const std::uint8_t* padded, std::uint8_t* out, int width,
                      int kw, detail::MinMax mode);

/// The interior of one 3x3 median row, 64 px per network.
void median3Row(const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, std::uint8_t* dst, int width);

}  // namespace simdcv::imgproc::morph_avx512
