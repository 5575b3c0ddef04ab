// The fused streaming executor: runs an arbitrary fusible Graph through
// cache-blocked, ksize-row ring buffers in row bands.
//
// Scheduling model (demand-driven, monotone):
//   * Every non-source node keeps a ring of its most recent output rows in its
//     DECLARED depth — the exact bytes its staged intermediate Mat would hold.
//     The ring height is 2*R+1 where R (Node::radius, derived at sink()) is
//     how many rows of this node's output must stay live around the current
//     sink row: 0 for element-wise consumers, growing by ky/2 across each
//     downstream convolution.
//   * Each node has a monotone `next` counter; produceUpTo(u, m) produces rows
//     next..m in order. The sink node has R == 0 and no consumers, so it
//     writes its rows straight into dst.
//   * Separable stages hold the imgproc ring engine's parts
//     (ring_engine.hpp): a Ring of row-passed virtual rows with its own
//     monotone counter, padRow, and the Constant-border constantRow. A
//     SepConv node computes each virtual row by load-as-float + padRow +
//     rowConv through the per-path selectors sepFilter2D uses; the vertical
//     pass gathers kh taps and colConvs straight into an F32 output row, or
//     into a float row that storeRowPtr saturates into a narrower output.
//     Convolutions over the same input with identical geometry and one shared
//     sole consumer form a GROUP (Node::group): they advance in lockstep
//     through one ring whose slot holds every member's row, so the group
//     loads+pads each virtual source row once and row-convolves it for every
//     member (one load, N rowConvs: the F32 edge graph's Sobel pair, or any
//     sibling float convolutions). The windowed integer stages (Morph,
//     FxGaussian, FxSobel — the U8 edge graph's Sobel pair is FxSobel through
//     Graph::sepConv's exact integer lowering) each keep their own u8 or i16
//     Ring, with the row and column workers erode/dilate and the
//     fixed-point filters use.
//   * Bands: a band initializes every counter to max(0, band.begin - R) and
//     recomputes its seam rows through the identical sequence, so any row
//     partition (1 band, parallel bands, or the forced test partition) is
//     bit-identical — the property the graph.* check entries enforce.
#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"

#include "core/array_ops_detail.hpp"
#include "core/convert_detail.hpp"
#include "core/saturate.hpp"
#include "core/scratch.hpp"
#include "core/fixedpt.hpp"
#include "imgproc/border.hpp"
#include "imgproc/edge_detail.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/filter_detail.hpp"
#include "imgproc/fixedpoint.hpp"
#include "imgproc/morph_detail.hpp"
#include "imgproc/ring_engine.hpp"
#include "imgproc/threshold.hpp"
#include "platform/platform.hpp"
#include "prof/prof.hpp"
#include "runtime/parallel.hpp"
#include "tune/tune.hpp"

namespace simdcv::graph {
namespace detail {

namespace {

using imgproc::BorderType;
using imgproc::ThresholdType;
using imgproc::ring::Ring;

using ThreshF32Fn = void (*)(const float*, float*, std::size_t, float, float,
                             ThresholdType);
using ThreshS16Fn = void (*)(const std::int16_t*, std::int16_t*, std::size_t,
                             std::int16_t, std::int16_t, ThresholdType);

ThreshF32Fn threshF32For(KernelPath p) {
  switch (p) {
    case KernelPath::Avx512: return &imgproc::avx512::threshF32;
    case KernelPath::Avx2: return &imgproc::avx2::threshF32;
    case KernelPath::Sse2: return &imgproc::sse2::threshF32;
    case KernelPath::Neon: return &imgproc::neon::threshF32;
    case KernelPath::ScalarNoVec: return &imgproc::novec::threshF32;
    default: return &imgproc::autovec::threshF32;
  }
}

// Per-threshold-node quantization, resolved once per run. Matches
// imgproc::threshold()'s per-depth prep exactly, including the U8
// degenerate-level collapse to a per-row fill or copy.
struct ThreshPrep {
  enum class Mode : std::uint8_t { U8, U8Fill, U8Copy, S16, F32 } mode =
      Mode::U8;
  std::uint8_t t8 = 0, imax8 = 0, fill = 0;
  std::int16_t t16 = 0, imax16 = 0;
  float tf = 0, mf = 0;
  ThresholdType type = ThresholdType::Binary;
};

ThreshPrep prepThreshold(const Node& n) {
  ThreshPrep tp;
  tp.type = n.ttype;
  switch (n.depth) {
    case Depth::U8: {
      const int it = cvFloor(n.thresh);
      const std::uint8_t imax = saturate_cast<std::uint8_t>(cvRound(n.maxval));
      if (it < 0 || it >= 255) {
        const bool noneAbove = it >= 255;
        tp.mode = ThreshPrep::Mode::U8Fill;
        switch (n.ttype) {
          case ThresholdType::Binary: tp.fill = noneAbove ? 0 : imax; break;
          case ThresholdType::BinaryInv: tp.fill = noneAbove ? imax : 0; break;
          case ThresholdType::Trunc:
            if (noneAbove) tp.mode = ThreshPrep::Mode::U8Copy;
            break;
          case ThresholdType::ToZero:
            if (!noneAbove) tp.mode = ThreshPrep::Mode::U8Copy;
            break;
          case ThresholdType::ToZeroInv:
            if (noneAbove) tp.mode = ThreshPrep::Mode::U8Copy;
            break;
        }
      } else {
        tp.mode = ThreshPrep::Mode::U8;
        tp.t8 = saturate_cast<std::uint8_t>(it);
        tp.imax8 = imax;
      }
      break;
    }
    case Depth::S16:
      tp.mode = ThreshPrep::Mode::S16;
      tp.t16 = saturate_cast<std::int16_t>(cvFloor(n.thresh));
      tp.imax16 = saturate_cast<std::int16_t>(cvRound(n.maxval));
      break;
    default:
      tp.mode = ThreshPrep::Mode::F32;
      tp.tf = static_cast<float>(n.thresh);
      tp.mf = static_cast<float>(n.maxval);
      break;
  }
  return tp;
}

// The integer "windowed" stages (Morph / FxGaussian / FxSobel) stream through
// per-node rings exactly like SepConv streams through its group ring, but
// with u8/i16 intermediates and the fixed-point / min-max row workers. They
// are never grouped: each keeps its own window ring, padded row and virtual
// counter.
bool isWindowed(const Node& n) {
  return n.kind == NodeKind::Morph || n.kind == NodeKind::FxGaussian ||
         n.kind == NodeKind::FxSobel;
}

int windowKw(const Node& n) {
  switch (n.kind) {
    case NodeKind::Morph: return n.morphKw;
    case NodeKind::FxGaussian: return static_cast<int>(n.fxkx.size());
    case NodeKind::FxSobel: return static_cast<int>(n.fxsx.size());
    default: return 1;
  }
}

int windowKh(const Node& n) {
  switch (n.kind) {
    case NodeKind::Morph: return n.morphKh;
    case NodeKind::FxGaussian: return static_cast<int>(n.fxky.size());
    case NodeKind::FxSobel: return static_cast<int>(n.fxsy.size());
    default: return 1;
  }
}

// Element size of a windowed node's intermediate (row-pass output) rows.
std::size_t windowElem(const Node& n) {
  return n.kind == NodeKind::FxSobel ? sizeof(std::int16_t)
                                     : sizeof(std::uint8_t);
}

// Conv-load sharing group, densified from Node::group.
struct GroupInfo {
  std::vector<NodeId> members;  // id order; all share in0/kw/kh/border/radius
  NodeId in0 = -1;
  int kw = 1, kh = 1, rx = 0, ry = 0;
  BorderType border = BorderType::Reflect101;
  float bv = 0.0f;
};

// Immutable per-run context, shared by every band.
struct RunCtx {
  const std::vector<Node>& nodes;
  NodeId sink;
  const Mat& src;
  Mat& out;
  KernelPath p;
  int rows, width;
  std::size_t w;
  imgproc::detail::RowConvFn rowFn;
  imgproc::detail::ColConvFn colFn;
  imgproc::detail::MagnitudeFn magFn;
  imgproc::detail::ThreshU8Fn fn8;
  ThreshF32Fn fnF32;
  ThreshS16Fn fnS16;
  core::detail::WeightedFn wfn;
  std::vector<GroupInfo> groups;
  std::vector<int> groupOf;                   // node -> dense group (-1)
  std::vector<ThreshPrep> thr;                // node-indexed
  std::vector<std::vector<float>> constRows;  // node-indexed (Constant border)
  bool trace = false;
  // Fixed-point per-path workers (set after brace-init in runFusedImpl).
  imgproc::detail::FxRowU8Fn fxRowU8 = nullptr;
  imgproc::detail::FxColU8Fn fxColU8 = nullptr;
  imgproc::detail::FxRowS16Fn fxRowS16 = nullptr;
  imgproc::detail::FxColS16Fn fxColS16 = nullptr;
  // Constant-border fully-out-of-image rows for the fx windowed nodes.
  std::vector<std::vector<std::uint8_t>> constRowsU8{};   // node-indexed
  std::vector<std::vector<std::int16_t>> constRowsS16{};  // node-indexed
};

imgproc::detail::MinMax morphMode(const Node& n) {
  return n.morphMax ? imgproc::detail::MinMax::Max
                    : imgproc::detail::MinMax::Min;
}

// The u8 border value a windowed node pads with: the integer the staged
// schedule hands sepFilter2DFx* (Graph::fxGaussian / fxSobel reject a
// non-integer Constant value), saturated as the engine saturates it.
std::uint8_t windowBorderValue(const Node& n) {
  return core::fxSatU8(static_cast<int>(n.borderValue));
}

// Row pass of a windowed node over a padded u8 row: i16 intermediates for
// FxSobel, u8 for Morph and FxGaussian.
template <typename T>
void windowRowPass(const RunCtx& c, const Node& n, const std::uint8_t* padded,
                   T* out) {
  if constexpr (std::is_same_v<T, std::int16_t>)
    c.fxRowS16(padded, out, c.width, n.fxsx.data(), windowKw(n));
  else if (n.kind == NodeKind::Morph)
    imgproc::detail::morphHorizontalMinMax(padded, out, c.width, windowKw(n),
                                           morphMode(n), c.p);
  else
    c.fxRowU8(padded, out, c.width, n.fxkx.data(), windowKw(n));
}

template <typename T>
const std::vector<T>& windowConstRow(const RunCtx& c, NodeId u) {
  if constexpr (std::is_same_v<T, std::int16_t>)
    return c.constRowsS16[static_cast<std::size_t>(u)];
  else
    return c.constRowsU8[static_cast<std::size_t>(u)];
}

// Per-band executor. All scratch comes from this thread's ScratchArena via
// one ScratchFrame, so repeated runs at one width never touch the heap.
struct BandExec {
  const RunCtx& c;
  core::ScratchFrame frame;
  std::vector<int> next;                // per node
  std::vector<std::uint8_t*> ring;      // per node (null: source/sink)
  std::vector<int> ringH;               // per node
  std::vector<std::size_t> rowBytes;    // per node
  std::vector<int> gnext;               // per group
  std::vector<float*> padded;           // per group
  // Per group: slot v holds every member's row pass of virtual row v, member
  // mi at offset mi * w.
  std::vector<Ring<float>> convRing;
  const float** taps = nullptr;
  float* fbuf = nullptr;
  // Windowed (Morph / fixed-point) per-node state.
  std::vector<Ring<std::uint8_t>> wring8;   // Morph / FxGaussian
  std::vector<Ring<std::int16_t>> wring16;  // FxSobel
  std::vector<std::uint8_t*> wpad;          // padded u8 input row
  const std::uint8_t** taps8 = nullptr;
  const std::int16_t** taps16 = nullptr;
  // Stage-time attribution (only touched when c.trace).
  std::vector<std::uint64_t> ns, rowsOut;        // per node
  std::vector<std::uint64_t> rowNs, rowsPrimed;  // per group
  std::vector<std::uint64_t> wRowNs, wRowsPrimed;  // per windowed node

  BandExec(const RunCtx& ctx, runtime::Range band) : c(ctx) {
    const int N = static_cast<int>(c.nodes.size());
    next.assign(static_cast<std::size_t>(N), 0);
    ring.assign(static_cast<std::size_t>(N), nullptr);
    ringH.assign(static_cast<std::size_t>(N), 1);
    rowBytes.assign(static_cast<std::size_t>(N), 0);
    for (int u = 1; u < N; ++u) {
      const Node& n = c.nodes[static_cast<std::size_t>(u)];
      next[static_cast<std::size_t>(u)] = std::max(0, band.begin - n.radius);
      ringH[static_cast<std::size_t>(u)] = 2 * n.radius + 1;
      rowBytes[static_cast<std::size_t>(u)] = c.w * depthSize(n.depth);
      if (u != c.sink)
        ring[static_cast<std::size_t>(u)] = frame.allocN<std::uint8_t>(
            static_cast<std::size_t>(ringH[static_cast<std::size_t>(u)]) *
            rowBytes[static_cast<std::size_t>(u)]);
    }
    const std::size_t G = c.groups.size();
    gnext.resize(G);
    padded.resize(G);
    convRing.resize(G);
    int maxKh = 1;
    for (std::size_t gi = 0; gi < G; ++gi) {
      const GroupInfo& g = c.groups[gi];
      gnext[gi] = next[static_cast<std::size_t>(g.members[0])];
      padded[gi] =
          frame.allocN<float>(c.w + static_cast<std::size_t>(g.kw) - 1);
      convRing[gi] =
          Ring<float>(frame, g.kh, g.members.size() * c.w, gnext[gi]);
      maxKh = std::max(maxKh, g.kh);
    }
    taps = frame.allocN<const float*>(static_cast<std::size_t>(maxKh));
    fbuf = frame.allocN<float>(c.w);
    wring8.resize(static_cast<std::size_t>(N));
    wring16.resize(static_cast<std::size_t>(N));
    wpad.assign(static_cast<std::size_t>(N), nullptr);
    int maxWKh = 0;
    for (int u = 1; u < N; ++u) {
      const Node& n = c.nodes[static_cast<std::size_t>(u)];
      if (!isWindowed(n)) continue;
      const auto uu = static_cast<std::size_t>(u);
      const int kw = windowKw(n), kh = windowKh(n);
      if (n.kind == NodeKind::FxSobel)
        wring16[uu] = Ring<std::int16_t>(frame, kh, c.w, next[uu]);
      else
        wring8[uu] = Ring<std::uint8_t>(frame, kh, c.w, next[uu]);
      wpad[uu] = frame.allocN<std::uint8_t>(
          c.w + static_cast<std::size_t>(kw) - 1);
      maxWKh = std::max(maxWKh, kh);
    }
    if (maxWKh > 0) {
      taps8 = frame.allocN<const std::uint8_t*>(
          static_cast<std::size_t>(maxWKh));
      taps16 = frame.allocN<const std::int16_t*>(
          static_cast<std::size_t>(maxWKh));
    }
    if (c.trace) {
      ns.assign(static_cast<std::size_t>(N), 0);
      rowsOut.assign(static_cast<std::size_t>(N), 0);
      rowNs.assign(G, 0);
      rowsPrimed.assign(G, 0);
      wRowNs.assign(static_cast<std::size_t>(N), 0);
      wRowsPrimed.assign(static_cast<std::size_t>(N), 0);
    }
  }

  const void* inRowPtr(NodeId u, int y) {
    if (u == 0) return c.src.ptr<std::uint8_t>(y);
    const auto uu = static_cast<std::size_t>(u);
    return ring[uu] + static_cast<std::size_t>(y % ringH[uu]) * rowBytes[uu];
  }

  void* outRowPtr(NodeId u, int y) {
    if (u == c.sink) return c.out.ptr<std::uint8_t>(y);
    const auto uu = static_cast<std::size_t>(u);
    return ring[uu] + static_cast<std::size_t>(y % ringH[uu]) * rowBytes[uu];
  }

  void produceUpTo(NodeId u, int m) {
    if (u == 0) return;  // source rows are the Mat itself
    m = std::min(m, c.rows - 1);
    const int gi = c.groupOf[static_cast<std::size_t>(u)];
    if (gi >= 0) {
      while (gnext[static_cast<std::size_t>(gi)] <= m)
        produceGroupRow(static_cast<std::size_t>(gi),
                        gnext[static_cast<std::size_t>(gi)]++);
      return;
    }
    auto& n = next[static_cast<std::size_t>(u)];
    while (n <= m) produceRow(u, n++);
  }

  // Load + pad + rowConv virtual row v for every member of group gi — one
  // source-row load however many members consume it.
  void computeVirtualRow(std::size_t gi, int v) {
    const GroupInfo& g = c.groups[gi];
    float* slot = convRing[gi].slot(v);
    const int m = imgproc::borderInterpolate(v, c.rows, g.border);
    if (m < 0) {  // Constant border, out of range: precomputed constant row
      const std::uint64_t t0 = c.trace ? prof::nowNs() : 0;
      for (std::size_t mi = 0; mi < g.members.size(); ++mi)
        std::memcpy(
            slot + mi * c.w,
            c.constRows[static_cast<std::size_t>(g.members[mi])].data(),
            c.w * sizeof(float));
      if (c.trace) rowNs[gi] += prof::nowNs() - t0;
      return;
    }
    produceUpTo(g.in0, m);  // no-op for the source
    const std::uint64_t t0 = c.trace ? prof::nowNs() : 0;
    imgproc::detail::loadRowPtrAsFloat(
        c.nodes[static_cast<std::size_t>(g.in0)].depth, inRowPtr(g.in0, m),
        padded[gi] + g.rx, c.w, c.p);
    imgproc::ring::padRow(padded[gi], c.width, g.rx, g.border, g.bv);
    for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
      const Node& n = c.nodes[static_cast<std::size_t>(g.members[mi])];
      c.rowFn(padded[gi], slot + mi * c.w, c.width, n.kx.data(), g.kw);
    }
    if (c.trace) {
      rowNs[gi] += prof::nowNs() - t0;
      ++rowsPrimed[gi];
    }
  }

  // Produce output row y for EVERY member of group gi (members advance in
  // lockstep, which is what keeps the shared kh-row virtual ring valid).
  void produceGroupRow(std::size_t gi, int y) {
    const GroupInfo& g = c.groups[gi];
    convRing[gi].fillTo(y + g.ry, [&](int v) { computeVirtualRow(gi, v); });
    for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
      const NodeId u = g.members[mi];
      const Node& n = c.nodes[static_cast<std::size_t>(u)];
      convRing[gi].gather(y, taps, mi * c.w);
      const std::uint64_t t0 = c.trace ? prof::nowNs() : 0;
      // F32 outputs take the column pass directly; narrower depths
      // saturate out of fbuf.
      void* dst = outRowPtr(u, y);
      if (n.depth == Depth::F32) {
        c.colFn(taps, static_cast<float*>(dst), c.width, n.ky.data(), g.kh);
      } else {
        c.colFn(taps, fbuf, c.width, n.ky.data(), g.kh);
        imgproc::detail::storeRowPtr(fbuf, n.depth, dst, c.w, c.p);
      }
      if (c.trace) {
        ns[static_cast<std::size_t>(u)] += prof::nowNs() - t0;
        ++rowsOut[static_cast<std::size_t>(u)];
      }
      next[static_cast<std::size_t>(u)] = y + 1;
    }
  }

  template <typename T>
  Ring<T>& windowRing(NodeId u) {
    if constexpr (std::is_same_v<T, std::int16_t>)
      return wring16[static_cast<std::size_t>(u)];
    else
      return wring8[static_cast<std::size_t>(u)];
  }

  // Pad + row-pass virtual row v of a windowed node into its window ring —
  // the integer twin of computeVirtualRow, but per node (windowed stages are
  // never grouped).
  template <typename T>
  void computeWindowRow(NodeId u, int v) {
    const Node& n = c.nodes[static_cast<std::size_t>(u)];
    const auto uu = static_cast<std::size_t>(u);
    T* dstRow = windowRing<T>(u).slot(v);
    const int m = imgproc::borderInterpolate(v, c.rows, n.border);
    if (m < 0) {  // Constant border, out of range: precomputed constant row
      const std::uint64_t t0 = c.trace ? prof::nowNs() : 0;
      std::memcpy(dstRow, windowConstRow<T>(c, u).data(), c.w * sizeof(T));
      if (c.trace) wRowNs[uu] += prof::nowNs() - t0;
      return;
    }
    produceUpTo(n.in0, m);
    const std::uint64_t t0 = c.trace ? prof::nowNs() : 0;
    const int rx = windowKw(n) / 2;
    std::memcpy(wpad[uu] + rx, inRowPtr(n.in0, m), c.w);
    imgproc::ring::padRow(wpad[uu], c.width, rx, n.border,
                          windowBorderValue(n));
    windowRowPass(c, n, wpad[uu], dstRow);
    if (c.trace) {
      wRowNs[uu] += prof::nowNs() - t0;
      ++wRowsPrimed[uu];
    }
  }

  // Vertical pass of a windowed node: prime the window ring up to y+ry, then
  // gather kh taps and reduce into the node's output ring (or dst).
  template <typename T>
  void produceWindowedRow(NodeId u, int y, const T** taps) {
    const Node& n = c.nodes[static_cast<std::size_t>(u)];
    Ring<T>& ring = windowRing<T>(u);
    const int kh = ring.kh;
    ring.fillTo(y + kh / 2, [&](int v) { computeWindowRow<T>(u, v); });
    const std::uint64_t t0 = c.trace ? prof::nowNs() : 0;
    T* d = static_cast<T*>(outRowPtr(u, y));
    ring.gather(y, taps);
    if constexpr (std::is_same_v<T, std::int16_t>)
      c.fxColS16(taps, d, c.width, n.fxsy.data(), kh);
    else if (n.kind == NodeKind::Morph)
      imgproc::detail::morphVerticalMinMax(taps, d, c.width, kh, morphMode(n),
                                           c.p);
    else
      c.fxColU8(taps, d, c.width, n.fxky.data(), kh);
    if (c.trace) {
      ns[static_cast<std::size_t>(u)] += prof::nowNs() - t0;
      ++rowsOut[static_cast<std::size_t>(u)];
    }
  }

  // Element-wise stages: demand the input rows, then apply the exact per-row
  // kernel the staged dispatcher applies (convert_detail / threshold /
  // edge_detail / array_ops_detail selectors).
  void produceRow(NodeId u, int y) {
    const Node& n = c.nodes[static_cast<std::size_t>(u)];
    if (isWindowed(n)) {
      if (n.kind == NodeKind::FxSobel)
        produceWindowedRow(u, y, taps16);
      else
        produceWindowedRow(u, y, taps8);
      return;
    }
    produceUpTo(n.in0, y);
    if (n.in1 >= 0) produceUpTo(n.in1, y);
    const void* a = inRowPtr(n.in0, y);
    void* d = outRowPtr(u, y);
    const std::uint64_t t0 = c.trace ? prof::nowNs() : 0;
    switch (n.kind) {
      case NodeKind::Convert:
      case NodeKind::Pointwise:
        core::detail::cvtRow(c.nodes[static_cast<std::size_t>(n.in0)].depth,
                             n.depth, a, d, c.w, n.alpha, n.beta, c.p);
        break;
      case NodeKind::Threshold: {
        const ThreshPrep& tp = c.thr[static_cast<std::size_t>(u)];
        switch (tp.mode) {
          case ThreshPrep::Mode::U8:
            c.fn8(static_cast<const std::uint8_t*>(a),
                  static_cast<std::uint8_t*>(d), c.w, tp.t8, tp.imax8,
                  tp.type);
            break;
          case ThreshPrep::Mode::U8Fill:
            std::memset(d, tp.fill, c.w);
            break;
          case ThreshPrep::Mode::U8Copy:
            std::memcpy(d, a, c.w);
            break;
          case ThreshPrep::Mode::S16:
            c.fnS16(static_cast<const std::int16_t*>(a),
                    static_cast<std::int16_t*>(d), c.w, tp.t16, tp.imax16,
                    tp.type);
            break;
          case ThreshPrep::Mode::F32:
            c.fnF32(static_cast<const float*>(a), static_cast<float*>(d), c.w,
                    tp.tf, tp.mf, tp.type);
            break;
        }
        break;
      }
      case NodeKind::Magnitude:
        c.magFn(static_cast<const std::int16_t*>(a),
                static_cast<const std::int16_t*>(inRowPtr(n.in1, y)),
                static_cast<std::uint8_t*>(d), c.w);
        break;
      case NodeKind::AddWeighted:
        c.wfn(n.depth, a, inRowPtr(n.in1, y), d, c.w, n.alpha, n.beta,
              n.gamma);
        break;
      case NodeKind::SepConv:    // handled by produceGroupRow
      case NodeKind::Morph:      // handled by produceWindowedRow
      case NodeKind::FxGaussian:
      case NodeKind::FxSobel:
      case NodeKind::Source:
      case NodeKind::Opaque:
        break;
    }
    if (c.trace) {
      ns[static_cast<std::size_t>(u)] += prof::nowNs() - t0;
      ++rowsOut[static_cast<std::size_t>(u)];
    }
  }

  void run(runtime::Range band) {
    produceUpTo(c.sink, band.end - 1);
    if (!c.trace) return;
    // One synthetic sample per stage per band, labeled with the node's
    // interned signature code, so the VERBOSE=2 summary splits fused time by
    // stage without per-row span spam. Bytes are the stage's own traffic.
    for (std::size_t u = 1; u < c.nodes.size(); ++u) {
      const Node& n = c.nodes[u];
      if (rowsOut[u] == 0) continue;
      std::uint64_t bytes = rowsOut[u] * c.w * depthSize(n.depth);
      if (n.kind == NodeKind::SepConv)
        bytes += rowsOut[u] * c.w *
                 (static_cast<std::uint64_t>(n.ky.size()) + 1) * sizeof(float);
      else if (n.kind == NodeKind::Magnitude)
        bytes = rowsOut[u] * imgproc::detail::magnitudeRowBytes(c.width);
      else if (isWindowed(n))
        bytes += rowsOut[u] * c.w *
                 static_cast<std::uint64_t>(windowKh(n)) * windowElem(n);
      else
        bytes += rowsOut[u] * c.w *
                 depthSize(c.nodes[static_cast<std::size_t>(n.in0)].depth) *
                 (n.in1 >= 0 ? 2 : 1);
      prof::addSample(n.label, c.p, ns[u], bytes);
      // A windowed node's row pass: u8 in, one intermediate row out.
      if (isWindowed(n) && wRowsPrimed[u] > 0)
        prof::addSample(n.rowLabel, c.p, wRowNs[u],
                        wRowsPrimed[u] * c.w * (1 + windowElem(n)));
    }
    for (std::size_t gi = 0; gi < c.groups.size(); ++gi) {
      const GroupInfo& g = c.groups[gi];
      if (rowsPrimed[gi] == 0) continue;
      const Node& leader = c.nodes[static_cast<std::size_t>(g.members[0])];
      const std::uint64_t inBytes =
          depthSize(c.nodes[static_cast<std::size_t>(g.in0)].depth);
      prof::addSample(
          leader.rowLabel, c.p, rowNs[gi],
          rowsPrimed[gi] * c.w *
              (inBytes + g.members.size() * sizeof(float)));
    }
  }
};

}  // namespace

std::size_t fusedScratchBytes(const Graph& g, int width) {
  SIMDCV_REQUIRE(g.finalized(), "graph: call sink() first");
  const std::size_t w = static_cast<std::size_t>(width);
  std::size_t bytes = sizeof(float) * w + 64;  // fbuf
  for (NodeId id = 1; id < g.numNodes(); ++id) {
    const Node& n = g.nodes_[static_cast<std::size_t>(id)];
    if (id != g.sink_)  // output ring
      bytes += static_cast<std::size_t>(2 * n.radius + 1) * w *
                   depthSize(n.depth) +
               64;
    if (n.kind == NodeKind::SepConv)  // virtual-row ring (+ member rowConv)
      bytes += sizeof(float) * n.ky.size() * w + 64;
    if (isWindowed(n))  // window ring + padded u8 row
      bytes += static_cast<std::size_t>(windowKh(n)) * w * windowElem(n) + w +
               static_cast<std::size_t>(windowKw(n)) - 1 + 2 * 64;
  }
  // One padded row + tap table per group; approximate with the widest kernel
  // (groups share the band's single tap table in practice).
  std::size_t maxKw = 1, maxKh = 1;
  for (NodeId id = 1; id < g.numNodes(); ++id) {
    const Node& n = g.nodes_[static_cast<std::size_t>(id)];
    if (n.kind != NodeKind::SepConv) continue;
    maxKw = std::max(maxKw, n.kx.size());
    maxKh = std::max(maxKh, n.ky.size());
  }
  bytes += sizeof(float) * (w + maxKw - 1) + sizeof(void*) * maxKh + 2 * 64;
  return bytes;
}

void runFusedImpl(const Graph& g, const Mat& src, Mat& dst, KernelPath path,
                  int forcedBandRows) {
  SIMDCV_REQUIRE(g.finalized(), "graph: call sink() first");
  SIMDCV_REQUIRE(g.fusible_, "graph: runFused requires a fusible graph");
  SIMDCV_REQUIRE(!src.empty(), "graph: empty source");
  SIMDCV_REQUIRE(src.channels() == 1, "graph: single channel only");
  SIMDCV_REQUIRE(src.depth() == g.nodes_[0].depth,
                 "graph: source depth does not match the declared source");

  const KernelPath p = resolvePath(path);
  const int rows = src.rows();
  const int width = src.cols();
  SIMDCV_TRACE_SCOPE("graph.fused", p, g.ioBytes(src));

  if (g.sink_ == 0) {  // single-node graph: the pipeline is a copy
    Mat tmp;
    src.copyTo(tmp);
    dst = std::move(tmp);
    return;
  }

  const Depth sinkDepth = g.nodes_[static_cast<std::size_t>(g.sink_)].depth;
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(rows, width, PixelType(sinkDepth, 1));

  RunCtx ctx{g.nodes_,
             g.sink_,
             src,
             out,
             p,
             rows,
             width,
             static_cast<std::size_t>(width),
             imgproc::detail::rowConvFor(p),
             imgproc::detail::colConvFor(p),
             imgproc::detail::magnitudeFnFor(p),
             imgproc::detail::threshU8For(p),
             threshF32For(p),
             p == KernelPath::ScalarNoVec ? &imgproc::novec::threshS16
                                          : &imgproc::autovec::threshS16,
             core::detail::weightedFnFor(p),
             {},
             std::vector<int>(g.nodes_.size(), -1),
             std::vector<ThreshPrep>(g.nodes_.size()),
             std::vector<std::vector<float>>(g.nodes_.size()),
             prof::enabled()};
  ctx.fxRowU8 = imgproc::detail::fxRowU8For(p);
  ctx.fxColU8 = imgproc::detail::fxColU8For(p);
  ctx.fxRowS16 = imgproc::detail::fxRowS16For(p);
  ctx.fxColS16 = imgproc::detail::fxColS16For(p);
  ctx.constRowsU8.resize(g.nodes_.size());
  ctx.constRowsS16.resize(g.nodes_.size());

  // Densify conv groups and resolve per-node prep.
  std::vector<int> denseOf;  // sparse group id -> dense index
  for (NodeId id = 1; id < g.numNodes(); ++id) {
    const Node& n = g.nodes_[static_cast<std::size_t>(id)];
    if (n.kind == NodeKind::Threshold)
      ctx.thr[static_cast<std::size_t>(id)] = prepThreshold(n);
    // Constant-border fully-out-of-image rows for the windowed integer
    // stages, row-passed once and shared by every band.
    if (isWindowed(n) && n.border == BorderType::Constant) {
      const auto uu = static_cast<std::size_t>(id);
      const std::uint8_t bv = windowBorderValue(n);
      if (n.kind == NodeKind::FxSobel)
        ctx.constRowsS16[uu] = imgproc::ring::constantRow<std::int16_t>(
            width, windowKw(n), bv,
            [&](const std::uint8_t* pad, std::int16_t* o) {
              windowRowPass(ctx, n, pad, o);
            });
      else
        ctx.constRowsU8[uu] = imgproc::ring::constantRow<std::uint8_t>(
            width, windowKw(n), bv,
            [&](const std::uint8_t* pad, std::uint8_t* o) {
              windowRowPass(ctx, n, pad, o);
            });
    }
    if (n.kind != NodeKind::SepConv) continue;
    if (static_cast<std::size_t>(n.group) >= denseOf.size())
      denseOf.resize(static_cast<std::size_t>(n.group) + 1, -1);
    int gi = denseOf[static_cast<std::size_t>(n.group)];
    if (gi < 0) {
      gi = static_cast<int>(ctx.groups.size());
      denseOf[static_cast<std::size_t>(n.group)] = gi;
      GroupInfo info;
      info.in0 = n.in0;
      info.kw = static_cast<int>(n.kx.size());
      info.kh = static_cast<int>(n.ky.size());
      info.rx = info.kw / 2;
      info.ry = info.kh / 2;
      info.border = n.border;
      info.bv = static_cast<float>(n.borderValue);
      ctx.groups.push_back(std::move(info));
    }
    ctx.groups[static_cast<std::size_t>(gi)].members.push_back(id);
    ctx.groupOf[static_cast<std::size_t>(id)] = gi;
    // Fully-constant virtual rows under Constant border: row-convolved once,
    // shared by every band (identical to what any band would compute).
    if (n.border == BorderType::Constant)
      ctx.constRows[static_cast<std::size_t>(id)] =
          imgproc::ring::constantRow<float>(
              width, static_cast<int>(n.kx.size()),
              static_cast<float>(n.borderValue),
              [&](const float* pad, float* o) {
                ctx.rowFn(pad, o, width, n.kx.data(),
                          static_cast<int>(n.kx.size()));
              });
  }

  auto processBand = [&](runtime::Range band) {
    BandExec ex(ctx, band);
    ex.run(band);
  };

  if (forcedBandRows > 0) {
    SIMDCV_REQUIRE(forcedBandRows >= 1, "graph: bandRows must be >= 1");
    for (int b = 0; b < rows; b += forcedBandRows)
      processBand({b, std::min(rows, b + forcedBandRows)});
  } else {
    // Band grain: the separable engine's fork rule with this graph's summed
    // per-row op cost, a seam-amortization floor of 16x the seam depth (each
    // band re-primes 2*sourceRadius source rows), raised to 32x when the
    // band scratch overflows half the L2, where a seam re-prime misses cache
    // and taller bands buy fewer seams.
    const int seam = 2 * g.sourceRadius_ + 1;
    int grain =
        std::max(runtime::parallelThreshold(
                     static_cast<std::size_t>(width) * sizeof(float), rows,
                     g.rowOpCost_),
                 g.maxKh_);
    grain = std::max(grain, 16 * seam);
    static const platform::HostInfo host = platform::queryHost();
    const std::size_t l2 = host.l2_kb > 0
                               ? static_cast<std::size_t>(host.l2_kb) * 1024
                               : 512u * 1024u;
    if (fusedScratchBytes(g, width) > l2 / 2) grain = std::max(grain, 32 * seam);
    grain = std::min(grain, std::max(rows, 1));
    tune::GrainScope gs(g.signature_.c_str(), p, g.ioBytes(src), rows, grain);
    runtime::parallel_for({0, rows}, processBand, gs.grain());
  }
  dst = std::move(out);
}

}  // namespace detail
}  // namespace simdcv::graph
