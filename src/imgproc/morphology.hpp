// Morphological operations with rectangular structuring elements, plus the
// box filter. Erode/dilate decompose separably into running 1-D min/max
// passes, which map directly onto pminub/pmaxub and vminq/vmaxq — the same
// SIMD shape as the threshold kernel.
#pragma once

#include "core/mat.hpp"
#include "imgproc/border.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc {

/// Erosion (local minimum) over a kw x kh rectangle. U8C1.
/// Border: replicate (so borders never brighten under erosion).
void erode(const Mat& src, Mat& dst, Size ksize = {3, 3},
           KernelPath path = KernelPath::Default);

/// Dilation (local maximum) over a kw x kh rectangle. U8C1.
void dilate(const Mat& src, Mat& dst, Size ksize = {3, 3},
            KernelPath path = KernelPath::Default);

/// Morphological opening (erode then dilate) and closing (dilate then
/// erode), byte-equal to the two calls. Each runs a per-thread cached
/// two-node graph (defined in graph/morph_open_close.cpp), so a warm call
/// into a reused dst allocates nothing.
void morphOpen(const Mat& src, Mat& dst, Size ksize = {3, 3},
               KernelPath path = KernelPath::Default);
void morphClose(const Mat& src, Mat& dst, Size ksize = {3, 3},
                KernelPath path = KernelPath::Default);

/// Normalized box filter (mean over a kw x kh window) for U8C1 / F32C1,
/// computed through the separable engine with uniform kernels.
void boxFilter(const Mat& src, Mat& dst, Size ksize,
               BorderType border = BorderType::Reflect101,
               KernelPath path = KernelPath::Default);

}  // namespace simdcv::imgproc
