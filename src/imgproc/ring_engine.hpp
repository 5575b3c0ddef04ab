// The separable row/column ring engine (DESIGN.md section 7), written once.
//
// Every separable stage in simdcv runs the same loop, as OpenCV 2.4's
// cv::FilterEngine does: a source row is loaded, padded horizontally by the
// border rule and row-passed into a ring of kh intermediates; each output row
// is the column pass over the kh ring rows centred on it. Rows above and
// below the image are "virtual" rows -kh/2 .. rows-1+kh/2, mapped to source
// rows by borderInterpolate; under a Constant border the fully out-of-image
// row is the row pass of a border-valued row, computed once.
//
// The float convolution (sepFilter2D), the fixed-point filters
// (sepFilter2DFxU8 / sepFilter2DFxS16) and erode/dilate (morphRect) run
// through runBanded below; the graph executor runs its own row program
// (graph_fused.cpp) over the same Ring and padRow.
//
// Banding: each band owns a private ring and re-primes its kh/2 seam rows
// through the identical load -> pad -> row-pass sequence, so any row
// partition gives the bytes of the serial walk.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/scratch.hpp"
#include "imgproc/border.hpp"
#include "prof/prof.hpp"
#include "runtime/parallel.hpp"
#include "simd/features.hpp"

namespace simdcv::imgproc::ring {

/// kh slots of `stride` T elements holding the newest row-passed virtual
/// rows. `next` is the next virtual row to compute and only ever increases;
/// `cur` is the slot it goes to, which once kh rows are in also holds the
/// oldest of them. Slots rotate by increment, never by division.
template <typename T>
struct Ring {
  T* base = nullptr;
  std::size_t stride = 0;
  int kh = 1;
  int next = 0;
  int cur = 0;

  Ring() = default;
  /// Slots come from `frame`; the first output row is y0, so the first
  /// virtual row computed is y0 - kh/2 (never below -kh/2).
  Ring(core::ScratchFrame& frame, int kh_, std::size_t stride_, int y0)
      : base(frame.allocN<T>(static_cast<std::size_t>(kh_) * stride_)),
        stride(stride_),
        kh(kh_),
        next(y0 - kh_ / 2) {}
  /// A view over kh caller-owned slots, for a caller that schedules its
  /// rows itself (the graph executor carves them from its band block).
  Ring(T* base_, int kh_, std::size_t stride_)
      : base(base_), stride(stride_), kh(kh_) {}

  /// The slot virtual row `next` goes to; advances `next`.
  T* push() {
    T* p = base + static_cast<std::size_t>(cur) * stride;
    ++next;
    if (++cur == kh) cur = 0;
    return p;
  }

  /// Compute virtual rows next .. v in order, each into its slot:
  /// compute(v, slot).
  template <typename Compute>
  void fillTo(int v, Compute&& compute) {
    while (next <= v) {
      const int at = next;
      compute(at, push());
    }
  }

  /// The column-pass taps over the kh newest rows, top to bottom: output
  /// row y's window once virtual row y + kh/2 is in.
  void gather(const T** taps) const {
    int s = cur;
    for (int r = 0; r < kh; ++r) {
      taps[static_cast<std::size_t>(r)] =
          base + static_cast<std::size_t>(s) * stride;
      if (++s == kh) s = 0;
    }
  }
};

/// Fill the horizontal pads of `padded` (rx elements each side around
/// `width` central elements already in place) according to the border rule.
template <typename T>
void padRow(T* padded, int width, int rx, BorderType border, T borderValue) {
  T* center = padded + rx;
  for (int j = 0; j < rx; ++j) {
    const int li = borderInterpolate(j - rx, width, border);
    padded[j] = li < 0 ? borderValue : center[li];
    const int ri = borderInterpolate(width + j, width, border);
    center[width + j] = ri < 0 ? borderValue : center[ri];
  }
}

/// The intermediate of a fully out-of-image row under a Constant border: a
/// padded row filled with `bv`, row-passed once by `row(padded, out)`.
template <typename T, typename P, typename RowStep>
std::vector<T> constantRow(int width, int kw, P bv, RowStep&& row) {
  std::vector<P> pad(static_cast<std::size_t>(width + kw - 1), bv);
  std::vector<T> out(static_cast<std::size_t>(width));
  row(pad.data(), out.data());
  return out;
}

/// Geometry of one separable pass over a rows x width source.
struct Shape {
  int rows, width, kw, kh;
  BorderType border;
};

/// Run a separable stage over rows [0, s.rows) in row bands, with ring
/// element T and padded-row element P:
///   load(m, P* dst)                   width elements of source row m,
///   row(const P* padded, T* out)      the row pass,
///   col(const T* const* taps, int y, T* spare)
///                                     the column pass into output row y;
///                                     `spare` is a per-band T row for steps
///                                     that narrow after the pass.
/// `kernel` names the trace span and `bytes` is the traffic it is charged
/// with. The grain is the fork threshold for one T row per output row at
/// (kw + kh) ops, floored at kh so a band is at least one window tall; bands
/// re-prime their seams, so the grain is pure scheduling.
template <typename T, typename P, typename Load, typename RowStep,
          typename ColStep>
void runBanded(const char* kernel, KernelPath p, std::uint64_t bytes,
               const Shape& s, P bv, Load&& load, RowStep&& row,
               ColStep&& col) {
  SIMDCV_TRACE_SCOPE(kernel, p, bytes);
  const std::size_t w = static_cast<std::size_t>(s.width);
  const int rx = s.kw / 2;
  std::vector<T> constRow;
  if (s.border == BorderType::Constant)
    constRow = constantRow<T>(s.width, s.kw, bv, row);

  auto band = [&](runtime::Range b) {
    core::ScratchFrame frame;
    P* padded = frame.allocN<P>(w + static_cast<std::size_t>(s.kw) - 1);
    T* spare = frame.allocN<T>(w);
    const T** taps = frame.allocN<const T*>(static_cast<std::size_t>(s.kh));
    Ring<T> ring(frame, s.kh, w, b.begin);
    auto compute = [&](int v, T* slot) {
      const int m = borderInterpolate(v, s.rows, s.border);
      if (m < 0) {
        std::memcpy(slot, constRow.data(), w * sizeof(T));
        return;
      }
      load(m, padded + rx);
      padRow(padded, s.width, rx, s.border, bv);
      row(padded, slot);
    };
    for (int y = b.begin; y < b.end; ++y) {
      ring.fillTo(y + s.kh / 2, compute);
      ring.gather(taps);
      col(taps, y, spare);
    }
  };

  const int grain =
      std::max(runtime::parallelThreshold(w * sizeof(T), s.rows,
                                          static_cast<double>(s.kw + s.kh)),
               s.kh);
  // One captured reference fits std::function's inline buffer, so a call
  // makes no heap allocation.
  runtime::parallel_for(
      {0, s.rows}, [&band](runtime::Range b) { band(b); }, grain);
}

}  // namespace simdcv::imgproc::ring
