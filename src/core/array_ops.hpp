// Element-wise array arithmetic and reductions over Mat — the slice of
// OpenCV's Core module the imgproc pipelines sit on: add/subtract/absdiff
// (saturating), scalar scaling, bitwise ops, min/max, and the reductions
// sum / mean / minMaxLoc.
//
// Supported depths: U8, S16, F32 (the depths the paper's pipelines use).
// All binary ops require matching geometry and type; all have scalar (AUTO),
// SSE2 and NEON paths with a bit-exact contract.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/mat.hpp"
#include "simd/features.hpp"

namespace simdcv::core {

/// dst = saturate(a + b), element-wise.
void add(const Mat& a, const Mat& b, Mat& dst,
         KernelPath path = KernelPath::Default);
/// dst = saturate(a - b), element-wise.
void subtract(const Mat& a, const Mat& b, Mat& dst,
              KernelPath path = KernelPath::Default);
/// dst = |a - b| with saturation, element-wise.
void absdiff(const Mat& a, const Mat& b, Mat& dst,
             KernelPath path = KernelPath::Default);
/// dst = min(a, b) / max(a, b), element-wise.
void min(const Mat& a, const Mat& b, Mat& dst,
         KernelPath path = KernelPath::Default);
void max(const Mat& a, const Mat& b, Mat& dst,
         KernelPath path = KernelPath::Default);
/// Bitwise ops (integer depths only).
void bitwiseAnd(const Mat& a, const Mat& b, Mat& dst,
                KernelPath path = KernelPath::Default);
void bitwiseOr(const Mat& a, const Mat& b, Mat& dst,
               KernelPath path = KernelPath::Default);
void bitwiseXor(const Mat& a, const Mat& b, Mat& dst,
                KernelPath path = KernelPath::Default);
void bitwiseNot(const Mat& a, Mat& dst, KernelPath path = KernelPath::Default);

/// dst = saturate(a * alpha + beta), element-wise (any supported depth).
void scaleAdd(const Mat& a, double alpha, double beta, Mat& dst,
              KernelPath path = KernelPath::Default);

/// Weighted blend: dst = saturate(a*alpha + b*beta + gamma).
void addWeighted(const Mat& a, double alpha, const Mat& b, double beta,
                 double gamma, Mat& dst, KernelPath path = KernelPath::Default);

// ---- reductions -------------------------------------------------------------
/// Sum of all elements (channels summed together).
double sum(const Mat& a, KernelPath path = KernelPath::Default);
/// Arithmetic mean of all elements.
double mean(const Mat& a, KernelPath path = KernelPath::Default);

struct MinMaxResult {
  double min_val = 0;
  double max_val = 0;
  int min_row = -1, min_col = -1;
  int max_row = -1, max_col = -1;
};
/// Extrema with their first (row-major) locations. Single channel only.
MinMaxResult minMaxLoc(const Mat& a, KernelPath path = KernelPath::Default);

}  // namespace simdcv::core
