// The float load and store steps of the separable engine, shared between
// sepFilter2D (filter.cpp) and the fused graph executor (graph_fused.cpp);
// the ring, pad and constant-row steps live in ring_engine.hpp. For a given
// KernelPath each step is the exact same code whichever pipeline invokes
// it, so a fused pipeline reproduces the unfused one bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc::detail {

/// Convert `n` elements of one source row (U8 or F32) to float with the
/// path-matched conversion kernel — the load step of the separable engine.
/// sepFilter2D loads Mat rows and the graph executor loads ring rows through
/// it, so a graph edge staged through a Mat and one streamed through a ring
/// load identically. `depth` must be U8 or F32 (the engine's input contract).
/// The path is resolved internally, so callers may pass Default.
void loadRowPtrAsFloat(Depth depth, const void* row, float* out, std::size_t n,
                       KernelPath p = KernelPath::Default);

/// Write `n` floats to `dst` in `depth` (F32 memcpy, saturating S16,
/// rounding U8) with the path-matched conversion — the store step of the
/// separable engine, shared so every pipeline writes output through
/// identical code.
void storeRowPtr(const float* row, Depth depth, void* dst, std::size_t n,
                 KernelPath p = KernelPath::Default);

/// Path-matched float -> saturating s16 row store (the S16 leg of storeRowPtr).
using CvtS16Fn = void (*)(const float* src, std::int16_t* dst, std::size_t n);
CvtS16Fn cvt32f16sFor(KernelPath path);

}  // namespace simdcv::imgproc::detail
