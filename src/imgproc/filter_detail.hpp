// Internal building blocks of the separable-filter engine, shared between
// sepFilter2D (filter.cpp) and the fused graph executor (graph_fused.cpp).
// Everything here preserves the engine's bit-exactness contract: for a given
// KernelPath the load/pad/convert steps are the exact same code no matter
// which pipeline invokes them, so a fused pipeline reproduces the unfused
// one bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/mat.hpp"
#include "imgproc/border.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc::detail {

/// Convert one source row (U8 or F32) to float with the path-matched
/// conversion kernel, writing src.cols() floats at `out`. The path is
/// resolved internally, so callers may pass Default (the uniform trailing
/// default every public kernel signature uses).
void loadRowAsFloat(const Mat& src, int row, float* out,
                    KernelPath p = KernelPath::Default);

/// Store one float row into `dst` row `y` with the path-matched conversion
/// for dst.depth() (F32 memcpy, saturating S16, rounding U8) — the storeRow
/// step of the separable engine, shared so every pipeline writes output
/// through identical code.
void storeRow(const float* row, Mat& dst, int y,
              KernelPath p = KernelPath::Default);

/// Flat-row variant of loadRowAsFloat for stage inputs that live in ring
/// buffers rather than Mats (the pipeline-graph fused executor). Dispatches
/// to the exact same per-path conversion kernels as the Mat form, so a graph
/// edge staged through a Mat and one streamed through a ring load
/// identically. `depth` must be U8 or F32 (the separable engine's input
/// contract).
void loadRowPtrAsFloat(Depth depth, const void* row, float* out, std::size_t n,
                       KernelPath p = KernelPath::Default);

/// Flat-row variant of storeRow: write `n` floats to `dst` in `depth` (F32
/// memcpy, saturating S16, rounding U8) through the same per-path kernels as
/// the Mat form.
void storeRowPtr(const float* row, Depth depth, void* dst, std::size_t n,
                 KernelPath p = KernelPath::Default);

/// Fill the horizontal pads of `padded` (rx floats each side around `width`
/// central elements already in place) according to the border rule.
void padRow(float* padded, int width, int rx, BorderType border,
            float borderValue);

/// Path-matched float -> saturating s16 row store (the S16 leg of the
/// engine's storeRow step).
using CvtS16Fn = void (*)(const float* src, std::int16_t* dst, std::size_t n);
CvtS16Fn cvt32f16sFor(KernelPath path);

}  // namespace simdcv::imgproc::detail
