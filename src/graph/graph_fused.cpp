// The fused streaming executor: runs a fusible Graph as a flat row program
// over row bands, through per-node ring buffers (DESIGN.md section 13).
//
//   * Every non-source node u keeps its newest 2*R_u+1 output rows in a
//     ring in its DECLARED depth — the bytes its staged intermediate Mat
//     would hold. R_u is Node::radius; the sink has R == 0 and writes
//     straight into dst.
//   * Skewed line-buffer schedule: when the sink writes row y, every node u
//     writes its row y + R_u (while inside the image), in topological
//     order. A consumer c reads u's rows y + R_c - ry_c .. y + R_c + ry_c
//     (ry_c: c's window half-height; rows outside the image map back in
//     through borderInterpolate), and R_u >= R_c + ry_c, so every row it
//     reads is written and still in u's ring.
//   * Windowed nodes (SepConv, Morph, FxGaussian, FxSobel) run a row pass
//     into a kh-row Ring in their native width and a column pass over it,
//     with the ring engine's parts (ring_engine.hpp). Windowed nodes over
//     the same input with the same window, border and one shared sole
//     consumer form a PAD SET: the shared consumer gives them one radius,
//     so one row pass loads and pads each source row once for all of them.
//   * A band [b, e) runs a prefix, then the steady loop. The prefix walks
//     the program node by node, writing rows max(0, b - R_u) .. b + R_u of
//     each: the seam plus the band's first row, at most 2*R_u+1 rows, so
//     the ring holds them all until the consumers' prefixes read them. The
//     steady loop then advances every node one row per sink row. Each band
//     recomputes its seam through the identical kernel sequence, so any row
//     partition is bit-identical — the property the graph.* check entries
//     enforce.
//   * A band's rings, padded rows, tap tables and per-node tables are carved
//     from one ScratchFrame allocation (layoutBand), so repeated runs at one
//     width never touch the heap.
#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
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

namespace simdcv::graph {
namespace detail {

using imgproc::BorderType;
using imgproc::ThresholdType;

enum class StepKind : std::uint8_t {
  GroupRow,     // SepConv pad set: load as float, pad, rowConv per member
  GroupCol,     // SepConv: gather, colConv (+ narrowing store)
  WindowRow,    // integer pad set: copy the u8 row, pad, row pass per member
  WindowCol,    // Morph / FxGaussian / FxSobel: gather, column pass
  Elementwise,  // Convert / Pointwise / Threshold / Magnitude / AddWeighted
};

struct RowProgram {
  // Per-threshold-node quantization. Matches imgproc::threshold()'s
  // per-depth prep exactly, including the U8 degenerate-level collapse to a
  // per-row fill or copy.
  struct Thresh {
    enum class Mode : std::uint8_t { U8, U8Fill, U8Copy, S16, F32 } mode =
        Mode::U8;
    std::uint8_t t8 = 0, imax8 = 0, fill = 0;
    std::int16_t t16 = 0, imax16 = 0;
    float tf = 0, mf = 0;
    ThresholdType type = ThresholdType::Binary;
  };
  struct Step {
    StepKind kind;
    NodeId node;  // the node written; a row pass names its set's leader
    int set;      // pad set of a row or column pass, else -1
    int radius;   // the step writes row y + radius when the sink writes y
    int span;     // steps that advance together: 1 + members for a row pass
  };
  // Windowed nodes sharing one padded source row (see the file comment).
  struct PadSet {
    NodeId in0;
    bool isFloat;      // SepConv: f32 pad; else the u8 pad of the integer tier
    int kw, kh;
    BorderType border;
    float bv;          // SepConv pad value
    std::uint8_t bv8;  // integer pad value
    int first, count;  // members[first, first + count), id order
  };
  std::vector<Step> steps;  // topological order
  std::vector<PadSet> sets;
  std::vector<NodeId> members;
  std::vector<Thresh> thr;  // node-indexed
  // Tallest windows per tap type, sizing the band's tap tables.
  int maxKhF = 0, maxKh8 = 0, maxKh16 = 0;
  bool narrowF = false;  // some SepConv narrows through the float spare row
};

namespace {

using imgproc::ring::Ring;
using Thresh = RowProgram::Thresh;

using ThreshF32Fn = void (*)(const float*, float*, std::size_t, float, float,
                             ThresholdType);

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

Thresh prepThreshold(const Node& n) {
  Thresh tp;
  tp.type = n.ttype;
  switch (n.depth) {
    case Depth::U8: {
      const int it = cvFloor(n.thresh);
      const std::uint8_t imax = saturate_cast<std::uint8_t>(cvRound(n.maxval));
      if (it < 0 || it >= 255) {
        const bool noneAbove = it >= 255;
        tp.mode = Thresh::Mode::U8Fill;
        switch (n.ttype) {
          case ThresholdType::Binary: tp.fill = noneAbove ? 0 : imax; break;
          case ThresholdType::BinaryInv: tp.fill = noneAbove ? imax : 0; break;
          case ThresholdType::Trunc:
            if (noneAbove) tp.mode = Thresh::Mode::U8Copy;
            break;
          case ThresholdType::ToZero:
            if (!noneAbove) tp.mode = Thresh::Mode::U8Copy;
            break;
          case ThresholdType::ToZeroInv:
            if (noneAbove) tp.mode = Thresh::Mode::U8Copy;
            break;
        }
      } else {
        tp.mode = Thresh::Mode::U8;
        tp.t8 = saturate_cast<std::uint8_t>(it);
        tp.imax8 = imax;
      }
      break;
    }
    case Depth::S16:
      tp.mode = Thresh::Mode::S16;
      tp.t16 = saturate_cast<std::int16_t>(cvFloor(n.thresh));
      tp.imax16 = saturate_cast<std::int16_t>(cvRound(n.maxval));
      break;
    default:
      tp.mode = Thresh::Mode::F32;
      tp.tf = static_cast<float>(n.thresh);
      tp.mf = static_cast<float>(n.maxval);
      break;
  }
  return tp;
}

// The integer windowed stages: u8/i16 intermediates, fixed-point and min/max
// row workers.
bool isWindowed(const Node& n) {
  return n.kind == NodeKind::Morph || n.kind == NodeKind::FxGaussian ||
         n.kind == NodeKind::FxSobel;
}

// Stages with a row pass: the float convolution and the integer windows.
bool hasRowPass(const Node& n) {
  return n.kind == NodeKind::SepConv || isWindowed(n);
}

int windowKw(const Node& n) {
  switch (n.kind) {
    case NodeKind::SepConv: return static_cast<int>(n.kx.size());
    case NodeKind::Morph: return n.morphKw;
    case NodeKind::FxGaussian: return static_cast<int>(n.fxkx.size());
    case NodeKind::FxSobel: return static_cast<int>(n.fxsx.size());
    default: return 1;
  }
}

int windowKh(const Node& n) {
  switch (n.kind) {
    case NodeKind::SepConv: return static_cast<int>(n.ky.size());
    case NodeKind::Morph: return n.morphKh;
    case NodeKind::FxGaussian: return static_cast<int>(n.fxky.size());
    case NodeKind::FxSobel: return static_cast<int>(n.fxsy.size());
    default: return 1;
  }
}

// Element size of a windowed node's intermediate (row-pass output) rows.
std::size_t windowElem(const Node& n) {
  switch (n.kind) {
    case NodeKind::SepConv: return sizeof(float);
    case NodeKind::FxSobel: return sizeof(std::int16_t);
    default: return sizeof(std::uint8_t);
  }
}

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

// Two windowed nodes share a pad set when they row-pass the same padded
// rows at the same times: same input, pad element, window, border and one
// shared sole consumer (which also gives them the same radius).
bool samePadSet(const Node& a, NodeId soleA, const Node& b, NodeId soleB) {
  return soleA >= 0 && soleA == soleB && a.in0 == b.in0 &&
         (a.kind == NodeKind::SepConv) == (b.kind == NodeKind::SepConv) &&
         windowKw(a) == windowKw(b) && windowKh(a) == windowKh(b) &&
         a.border == b.border && a.borderValue == b.borderValue;
}

// Bump layout over one 64-byte-aligned block; a null base only measures.
class Carver {
 public:
  explicit Carver(std::uint8_t* base) : base_(base) {}
  template <typename T>
  T* take(std::size_t n) {
    T* p = base_ ? reinterpret_cast<T*>(base_ + size_) : nullptr;
    size_ += (n * sizeof(T) + 63) / 64 * 64;
    return p;
  }
  std::size_t size() const { return size_; }

 private:
  std::uint8_t* base_;
  std::size_t size_ = 0;
};

// A node's output rows. A ring of h = 2R+1 rows is filled in row order:
// `next` is the next row to write and `cur` its slot, so a read of row r
// (one of the h newest) rotates back from `cur` without division. The
// source and the sink are the Mats themselves, with h past any row.
struct RowRef {
  std::uint8_t* base;
  std::size_t stride;
  int h, next, cur;

  std::uint8_t* write() {
    std::uint8_t* p = base + static_cast<std::size_t>(cur) * stride;
    ++next;
    if (++cur == h) cur = 0;
    return p;
  }
  const std::uint8_t* read(int r) const {
    int slot = cur - (next - r);
    if (slot < 0) slot += h;
    return base + static_cast<std::size_t>(slot) * stride;
  }
};

constexpr int kWholeMat = std::numeric_limits<int>::max();

// One band's scratch, carved from a single block by layoutBand.
struct BandScratch {
  RowRef* rows = nullptr;  // node-indexed
  // Row-pass rings, node-indexed; a windowed node uses the one of its width.
  Ring<float>* ringF = nullptr;
  Ring<std::uint8_t>* ring8 = nullptr;
  Ring<std::int16_t>* ring16 = nullptr;
  std::uint8_t** constRow = nullptr;  // Constant border: border row pass
  std::uint64_t* counters = nullptr;  // trace: 4 node-indexed arrays
  const float** tapsF = nullptr;
  const std::uint8_t** taps8 = nullptr;
  const std::int16_t** taps16 = nullptr;
  std::uint8_t** pads = nullptr;      // set-indexed padded source rows
  float* fbuf = nullptr;  // SepConv narrowing spare row
};

// The band layout of a program at width w: every buffer a band touches, in
// one block. Returns the block size; with a non-null base also points `s`
// into it and sets up the rings. fusedScratchBytes reports the same number.
std::size_t layoutBand(const RowProgram& P, const std::vector<Node>& nodes,
                       NodeId sink, std::size_t w, std::uint8_t* base,
                       BandScratch& s) {
  const std::size_t N = nodes.size();
  Carver c(base);
  s.rows = c.take<RowRef>(N);
  s.ringF = c.take<Ring<float>>(N);
  s.ring8 = c.take<Ring<std::uint8_t>>(N);
  s.ring16 = c.take<Ring<std::int16_t>>(N);
  s.constRow = c.take<std::uint8_t*>(N);
  s.counters = c.take<std::uint64_t>(4 * N);
  s.tapsF = c.take<const float*>(static_cast<std::size_t>(P.maxKhF));
  s.taps8 = c.take<const std::uint8_t*>(static_cast<std::size_t>(P.maxKh8));
  s.taps16 = c.take<const std::int16_t*>(static_cast<std::size_t>(P.maxKh16));
  s.pads = c.take<std::uint8_t*>(P.sets.size());
  for (std::size_t i = 0; i < P.sets.size(); ++i) {
    const RowProgram::PadSet& ps = P.sets[i];
    std::uint8_t* pad = c.take<std::uint8_t>(
        (w + static_cast<std::size_t>(ps.kw) - 1) *
        (ps.isFloat ? sizeof(float) : 1));
    if (base) s.pads[i] = pad;
  }
  s.fbuf = c.take<float>(P.narrowF ? w : 0);
  for (std::size_t u = 1; u < N; ++u) {
    const Node& n = nodes[u];
    const std::size_t rowBytes = w * depthSize(n.depth);
    const int h = 2 * n.radius + 1;
    std::uint8_t* ring = static_cast<NodeId>(u) == sink
                             ? nullptr
                             : c.take<std::uint8_t>(
                                   static_cast<std::size_t>(h) * rowBytes);
    if (base) s.rows[u] = {ring, rowBytes, h, 0, 0};
    if (!hasRowPass(n)) continue;
    const int kh = windowKh(n);
    const std::size_t slots = static_cast<std::size_t>(kh) * w;
    switch (n.kind) {
      case NodeKind::SepConv: {
        float* p = c.take<float>(slots);
        if (base) new (&s.ringF[u]) Ring<float>(p, kh, w);
        break;
      }
      case NodeKind::FxSobel: {
        std::int16_t* p = c.take<std::int16_t>(slots);
        if (base) new (&s.ring16[u]) Ring<std::int16_t>(p, kh, w);
        break;
      }
      default: {
        std::uint8_t* p = c.take<std::uint8_t>(slots);
        if (base) new (&s.ring8[u]) Ring<std::uint8_t>(p, kh, w);
        break;
      }
    }
    std::uint8_t* constRow = n.border == BorderType::Constant
                                 ? c.take<std::uint8_t>(w * windowElem(n))
                                 : nullptr;
    if (base) s.constRow[u] = constRow;
  }
  return c.size();
}

// The path's row kernels, resolved once per run.
struct Kernels {
  imgproc::detail::RowConvFn rowConv;
  imgproc::detail::ColConvFn colConv;
  imgproc::detail::MagnitudeFn magnitude;
  imgproc::detail::ThreshU8Fn threshU8;
  ThreshF32Fn threshF32;
  imgproc::detail::ThreshS16Fn threshS16;
  core::detail::WeightedFn weighted;
  imgproc::detail::FxRowU8Fn fxRowU8;
  imgproc::detail::FxColU8Fn fxColU8;
  imgproc::detail::FxRowS16Fn fxRowS16;
  imgproc::detail::FxColS16Fn fxColS16;

  explicit Kernels(KernelPath p)
      : rowConv(imgproc::detail::rowConvFor(p)),
        colConv(imgproc::detail::colConvFor(p)),
        magnitude(imgproc::detail::magnitudeFnFor(p)),
        threshU8(imgproc::detail::threshU8For(p)),
        threshF32(threshF32For(p)),
        threshS16(imgproc::detail::threshS16For(p)),
        weighted(core::detail::weightedFnFor(p)),
        fxRowU8(imgproc::detail::fxRowU8For(p)),
        fxColU8(imgproc::detail::fxColU8For(p)),
        fxRowS16(imgproc::detail::fxRowS16For(p)),
        fxColS16(imgproc::detail::fxColS16For(p)) {}
};

// Immutable per-run context, shared by every band.
struct RunCtx {
  const RowProgram& prog;
  const std::vector<Node>& nodes;
  NodeId sink;
  const Mat& src;
  Mat& out;
  KernelPath p;
  int rows, width;
  std::size_t w;
  std::size_t bandBytes;
  bool trace;
  Kernels k;
};

// One band of the program. Trace selects, at compile time, whether the
// steps time themselves for the per-stage prof samples.
template <bool Trace>
class BandExec {
 public:
  explicit BandExec(const RunCtx& ctx)
      : c(ctx), P(ctx.prog), nodes(ctx.nodes) {
    layoutBand(P, nodes, c.sink, c.w,
               static_cast<std::uint8_t*>(frame.alloc(c.bandBytes)), s);
    const std::size_t N = nodes.size();
    ns = s.counters;
    rowsOut = ns + N;
    rowNs = rowsOut + N;
    rowsPrimed = rowNs + N;
    if constexpr (Trace) std::memset(ns, 0, 4 * N * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < P.sets.size(); ++i)
      if (P.sets[i].border == BorderType::Constant) constantRows(i);
  }

  void run(runtime::Range band) {
    startRows(band.begin);
    const RowProgram::Step* const steps = P.steps.data();
    const RowProgram::Step* const end = steps + P.steps.size();
    // Prefix: node by node (a pad set with its members), rows
    // max(0, b - R) .. b + R.
    for (const RowProgram::Step* unit = steps; unit != end;
         unit += unit->span) {
      const int lo = std::max(0, band.begin - unit->radius);
      const int hi = std::min(c.rows - 1, band.begin + unit->radius);
      if (unit->set >= 0) {
        const int ry = P.sets[static_cast<std::size_t>(unit->set)].kh / 2;
        for (int v = lo - ry; v < lo + ry; ++v) rowPass(unit->set, v);
      }
      for (int r = lo; r <= hi; ++r)
        advance(unit, unit + unit->span, r - unit->radius);
    }
    // Steady loop: one row of every node per sink row.
    for (int y = band.begin + 1; y < band.end; ++y) advance(steps, end, y);
    if constexpr (Trace) emitSamples();
  }

 private:
  const RunCtx& c;
  const RowProgram& P;
  const std::vector<Node>& nodes;
  core::ScratchFrame frame;
  BandScratch s;
  // Trace counters (node-indexed, written only when Trace): stage time and
  // rows, row-pass time and rows (a SepConv set counts under its leader).
  std::uint64_t *ns = nullptr, *rowsOut = nullptr, *rowNs = nullptr,
                *rowsPrimed = nullptr;

  // Each node's first row in the band goes to ring slot 0. The source is
  // read only: no step writes node 0.
  void startRows(int b) {
    for (std::size_t u = 1; u < nodes.size(); ++u)
      s.rows[u].next = std::max(0, b - nodes[u].radius);
    s.rows[0] = {const_cast<std::uint8_t*>(c.src.data()), c.src.step(),
                 kWholeMat, 0, 0};
    s.rows[static_cast<std::size_t>(c.sink)] = {c.out.data(), c.out.step(),
                                                kWholeMat, b, b};
  }

  static std::uint64_t now() {
    if constexpr (Trace) return prof::nowNs();
    return 0;
  }

  const Node& node(NodeId u) const {
    return nodes[static_cast<std::size_t>(u)];
  }

  const void* in(NodeId u, int r) const {
    return s.rows[static_cast<std::size_t>(u)].read(r);
  }

  void* out(NodeId u) { return s.rows[static_cast<std::size_t>(u)].write(); }

  template <typename T>
  Ring<T>& ring(NodeId u) {
    const auto uu = static_cast<std::size_t>(u);
    if constexpr (std::is_same_v<T, float>)
      return s.ringF[uu];
    else if constexpr (std::is_same_v<T, std::int16_t>)
      return s.ring16[uu];
    else
      return s.ring8[uu];
  }

  // Virtual row v of a Constant-border node lies fully out of the image:
  // its row pass is the band's constant row.
  template <typename T>
  void pushConstRow(NodeId u) {
    std::memcpy(ring<T>(u).push(), s.constRow[static_cast<std::size_t>(u)],
                c.w * sizeof(T));
  }

  // Row pass of an integer windowed node over a padded u8 row: i16
  // intermediates for FxSobel, u8 for Morph and FxGaussian.
  template <typename T>
  void windowRowPass(const Node& n, const std::uint8_t* padded, T* dst) const {
    if constexpr (std::is_same_v<T, std::int16_t>)
      c.k.fxRowS16(padded, dst, c.width, n.fxsx.data(),
                   static_cast<int>(n.fxsx.size()));
    else if (n.kind == NodeKind::Morph)
      imgproc::detail::morphHorizontalMinMax(padded, dst, c.width, n.morphKw,
                                             morphMode(n), c.p);
    else
      c.k.fxRowU8(padded, dst, c.width, n.fxkx.data(),
                  static_cast<int>(n.fxkx.size()));
  }

  // The intermediate of a fully out-of-image row under a Constant border:
  // each member's row pass of a border-valued padded row (ring::constantRow's
  // computation, into band scratch).
  void constantRows(std::size_t set) {
    const RowProgram::PadSet& ps = P.sets[set];
    const std::size_t padLen = c.w + static_cast<std::size_t>(ps.kw) - 1;
    const NodeId* m = &P.members[static_cast<std::size_t>(ps.first)];
    if (ps.isFloat) {
      float* pad = reinterpret_cast<float*>(s.pads[set]);
      std::fill(pad, pad + padLen, ps.bv);
      for (int i = 0; i < ps.count; ++i)
        c.k.rowConv(pad,
                    reinterpret_cast<float*>(
                        s.constRow[static_cast<std::size_t>(m[i])]),
                    c.width, node(m[i]).kx.data(), ps.kw);
      return;
    }
    std::uint8_t* pad = s.pads[set];
    std::memset(pad, ps.bv8, padLen);
    for (int i = 0; i < ps.count; ++i) {
      const Node& n = node(m[i]);
      std::uint8_t* dst = s.constRow[static_cast<std::size_t>(m[i])];
      if (n.kind == NodeKind::FxSobel)
        windowRowPass(n, pad, reinterpret_cast<std::int16_t*>(dst));
      else
        windowRowPass(n, pad, dst);
    }
  }

  void rowPass(int set, int v) {
    const auto i = static_cast<std::size_t>(set);
    if (P.sets[i].isFloat)
      groupRow(P.sets[i], reinterpret_cast<float*>(s.pads[i]), v);
    else
      windowRow(P.sets[i], s.pads[i], v);
  }

  // Runs steps [first, last) for sink row y: each writes its row y + R,
  // while inside the image.
  void advance(const RowProgram::Step* first, const RowProgram::Step* last,
               int y) {
    for (const RowProgram::Step* st = first; st != last; ++st) {
      const int r = y + st->radius;
      if (r < c.rows) step(*st, r);
    }
  }

  void step(const RowProgram::Step& st, int r) {
    switch (st.kind) {
      case StepKind::GroupRow:
      case StepKind::WindowRow:
        rowPass(st.set, r + P.sets[static_cast<std::size_t>(st.set)].kh / 2);
        break;
      case StepKind::GroupCol: groupCol(st.node); break;
      case StepKind::WindowCol:
        if (node(st.node).kind == NodeKind::FxSobel)
          windowCol<std::int16_t>(st.node, s.taps16);
        else
          windowCol<std::uint8_t>(st.node, s.taps8);
        break;
      case StepKind::Elementwise: elementRow(st.node, r); break;
    }
  }

  // Load + pad + rowConv virtual row v for every member of a SepConv set —
  // one source-row load however many members consume it.
  void groupRow(const RowProgram::PadSet& ps, float* pad, int v) {
    const NodeId* m = &P.members[static_cast<std::size_t>(ps.first)];
    const auto leader = static_cast<std::size_t>(m[0]);
    const int mr = imgproc::borderInterpolate(v, c.rows, ps.border);
    const std::uint64_t t0 = now();
    if (mr < 0) {  // Constant border, out of range
      for (int i = 0; i < ps.count; ++i) pushConstRow<float>(m[i]);
      if constexpr (Trace) rowNs[leader] += now() - t0;
      return;
    }
    const int rx = ps.kw / 2;
    imgproc::detail::loadRowPtrAsFloat(node(ps.in0).depth, in(ps.in0, mr),
                                       pad + rx, c.w, c.p);
    imgproc::ring::padRow(pad, c.width, rx, ps.border, ps.bv);
    for (int i = 0; i < ps.count; ++i)
      c.k.rowConv(pad, ring<float>(m[i]).push(), c.width,
                  node(m[i]).kx.data(), ps.kw);
    if constexpr (Trace) {
      rowNs[leader] += now() - t0;
      ++rowsPrimed[leader];
    }
  }

  void groupCol(NodeId u) {
    const Node& n = node(u);
    const Ring<float>& rg = ring<float>(u);
    rg.gather(s.tapsF);
    const std::uint64_t t0 = now();
    // F32 outputs take the column pass directly; narrower depths saturate
    // out of fbuf.
    void* dst = out(u);
    if (n.depth == Depth::F32) {
      c.k.colConv(s.tapsF, static_cast<float*>(dst), c.width, n.ky.data(),
                  rg.kh);
    } else {
      c.k.colConv(s.tapsF, s.fbuf, c.width, n.ky.data(), rg.kh);
      imgproc::detail::storeRowPtr(s.fbuf, n.depth, dst, c.w, c.p);
    }
    if constexpr (Trace) {
      ns[static_cast<std::size_t>(u)] += now() - t0;
      ++rowsOut[static_cast<std::size_t>(u)];
    }
  }

  // The integer twin of groupRow: copy + pad the u8 source row once, then
  // each member row-passes it into its own Ring. The load and pad are timed
  // under the leader.
  void windowRow(const RowProgram::PadSet& ps, std::uint8_t* pad, int v) {
    const NodeId* m = &P.members[static_cast<std::size_t>(ps.first)];
    const int mr = imgproc::borderInterpolate(v, c.rows, ps.border);
    std::uint64_t t0 = now();
    if (mr < 0) {  // Constant border, out of range
      for (int i = 0; i < ps.count; ++i) {
        if (node(m[i]).kind == NodeKind::FxSobel)
          pushConstRow<std::int16_t>(m[i]);
        else
          pushConstRow<std::uint8_t>(m[i]);
      }
      if constexpr (Trace)
        rowNs[static_cast<std::size_t>(m[0])] += now() - t0;
      return;
    }
    const int rx = ps.kw / 2;
    std::memcpy(pad + rx, in(ps.in0, mr), c.w);
    imgproc::ring::padRow(pad, c.width, rx, ps.border, ps.bv8);
    for (int i = 0; i < ps.count; ++i) {
      const Node& n = node(m[i]);
      if (n.kind == NodeKind::FxSobel)
        windowRowPass(n, pad, ring<std::int16_t>(m[i]).push());
      else
        windowRowPass(n, pad, ring<std::uint8_t>(m[i]).push());
      if constexpr (Trace) {
        const std::uint64_t t1 = now();
        rowNs[static_cast<std::size_t>(m[i])] += t1 - t0;
        ++rowsPrimed[static_cast<std::size_t>(m[i])];
        t0 = t1;
      }
    }
  }

  // Column pass of a windowed node: gather kh taps and reduce into the
  // node's output ring (or dst).
  template <typename T>
  void windowCol(NodeId u, const T** taps) {
    const Node& n = node(u);
    const Ring<T>& rg = ring<T>(u);
    const std::uint64_t t0 = now();
    T* d = static_cast<T*>(out(u));
    rg.gather(taps);
    if constexpr (std::is_same_v<T, std::int16_t>)
      c.k.fxColS16(taps, d, c.width, n.fxsy.data(), rg.kh);
    else if (n.kind == NodeKind::Morph)
      imgproc::detail::morphVerticalMinMax(taps, d, c.width, rg.kh,
                                           morphMode(n), c.p);
    else
      c.k.fxColU8(taps, d, c.width, n.fxky.data(), rg.kh);
    if constexpr (Trace) {
      ns[static_cast<std::size_t>(u)] += now() - t0;
      ++rowsOut[static_cast<std::size_t>(u)];
    }
  }

  // Element-wise stages: the exact per-row kernel the staged dispatcher
  // applies (convert_detail / threshold / edge_detail / array_ops_detail
  // selectors).
  void elementRow(NodeId u, int y) {
    const Node& n = node(u);
    const void* a = in(n.in0, y);
    void* d = out(u);
    const std::uint64_t t0 = now();
    switch (n.kind) {
      case NodeKind::Convert:
      case NodeKind::Pointwise:
        core::detail::cvtRow(node(n.in0).depth, n.depth, a, d, c.w, n.alpha,
                             n.beta, c.p);
        break;
      case NodeKind::Threshold: {
        const Thresh& tp = P.thr[static_cast<std::size_t>(u)];
        switch (tp.mode) {
          case Thresh::Mode::U8:
            c.k.threshU8(static_cast<const std::uint8_t*>(a),
                         static_cast<std::uint8_t*>(d), c.w, tp.t8, tp.imax8,
                         tp.type);
            break;
          case Thresh::Mode::U8Fill:
            std::memset(d, tp.fill, c.w);
            break;
          case Thresh::Mode::U8Copy:
            std::memcpy(d, a, c.w);
            break;
          case Thresh::Mode::S16:
            c.k.threshS16(static_cast<const std::int16_t*>(a),
                          static_cast<std::int16_t*>(d), c.w, tp.t16,
                          tp.imax16, tp.type);
            break;
          case Thresh::Mode::F32:
            c.k.threshF32(static_cast<const float*>(a), static_cast<float*>(d),
                          c.w, tp.tf, tp.mf, tp.type);
            break;
        }
        break;
      }
      case NodeKind::Magnitude:
        c.k.magnitude(static_cast<const std::int16_t*>(a),
                      static_cast<const std::int16_t*>(in(n.in1, y)),
                      static_cast<std::uint8_t*>(d), c.w);
        break;
      case NodeKind::AddWeighted:
        c.k.weighted(n.depth, a, in(n.in1, y), d, c.w, n.alpha, n.beta,
                     n.gamma);
        break;
      case NodeKind::SepConv:  // row and column passes have their own steps
      case NodeKind::Morph:
      case NodeKind::FxGaussian:
      case NodeKind::FxSobel:
      case NodeKind::Source:
      case NodeKind::Opaque:
        break;
    }
    if constexpr (Trace) {
      ns[static_cast<std::size_t>(u)] += now() - t0;
      ++rowsOut[static_cast<std::size_t>(u)];
    }
  }

  // One synthetic sample per stage per band, labeled with the node's
  // interned signature code, so the VERBOSE=2 summary splits fused time by
  // stage without per-row span spam. Bytes are the stage's own traffic.
  void emitSamples() const {
    for (std::size_t u = 1; u < nodes.size(); ++u) {
      const Node& n = nodes[u];
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
        bytes += rowsOut[u] * c.w * depthSize(node(n.in0).depth) *
                 (n.in1 >= 0 ? 2 : 1);
      prof::addSample(n.label, c.p, ns[u], bytes);
      // A windowed node's row pass: u8 in, one intermediate row out.
      if (isWindowed(n) && rowsPrimed[u] > 0)
        prof::addSample(n.rowLabel, c.p, rowNs[u],
                        rowsPrimed[u] * c.w * (1 + windowElem(n)));
    }
    // A conv group's row pass: one sample under its leader's rowLabel.
    for (const RowProgram::PadSet& ps : P.sets) {
      const NodeId lead = P.members[static_cast<std::size_t>(ps.first)];
      const auto lu = static_cast<std::size_t>(lead);
      if (!ps.isFloat || rowsPrimed[lu] == 0) continue;
      prof::addSample(
          node(lead).rowLabel, c.p, rowNs[lu],
          rowsPrimed[lu] * c.w *
              (depthSize(node(ps.in0).depth) +
               static_cast<std::size_t>(ps.count) * sizeof(float)));
    }
  }
};

void runBand(const RunCtx& c, runtime::Range band) {
  if (c.trace)
    BandExec<true>(c).run(band);
  else
    BandExec<false>(c).run(band);
}

}  // namespace

std::shared_ptr<const RowProgram> compileRowProgram(
    const std::vector<Node>& nodes) {
  auto P = std::make_shared<RowProgram>();
  const std::size_t N = nodes.size();
  P->thr.resize(N);
  // Sole consumer of each node (-1 when several stages read it).
  std::vector<NodeId> sole(N, -1);
  for (std::size_t id = 1; id < N; ++id)
    for (NodeId in : {nodes[id].in0, nodes[id].in1})
      if (in >= 0)
        sole[static_cast<std::size_t>(in)] =
            nodes[static_cast<std::size_t>(in)].consumers == 1
                ? static_cast<NodeId>(id)
                : -1;
  std::vector<int> setOf(N, -1);
  for (std::size_t id = 1; id < N; ++id) {
    const Node& n = nodes[id];
    if (setOf[id] >= 0) continue;  // a later member of an earlier set
    if (n.kind == NodeKind::Threshold) P->thr[id] = prepThreshold(n);
    if (!hasRowPass(n)) {
      P->steps.push_back({StepKind::Elementwise, static_cast<NodeId>(id), -1,
                          n.radius, 1});
      continue;
    }
    // A set's steps sit at its leader's (lowest id) position: members read
    // only the shared input, so moving the later ones up keeps the order
    // topological.
    const bool isFloat = n.kind == NodeKind::SepConv;
    RowProgram::PadSet ps{n.in0,
                          isFloat,
                          windowKw(n),
                          windowKh(n),
                          n.border,
                          static_cast<float>(n.borderValue),
                          windowBorderValue(n),
                          static_cast<int>(P->members.size()),
                          0};
    const int set = static_cast<int>(P->sets.size());
    const std::size_t rowStep = P->steps.size();
    P->steps.push_back({isFloat ? StepKind::GroupRow : StepKind::WindowRow,
                        static_cast<NodeId>(id), set, n.radius, 1});
    for (std::size_t m = id; m < N; ++m) {
      const Node& o = nodes[m];
      if (m != id && (setOf[m] >= 0 || !hasRowPass(o) ||
                      !samePadSet(n, sole[id], o, sole[m])))
        continue;
      setOf[m] = set;
      P->members.push_back(static_cast<NodeId>(m));
      ++ps.count;
      P->steps.push_back({isFloat ? StepKind::GroupCol : StepKind::WindowCol,
                          static_cast<NodeId>(m), set, o.radius, 1});
      if (isFloat) {
        P->maxKhF = std::max(P->maxKhF, ps.kh);
        P->narrowF = P->narrowF || o.depth != Depth::F32;
      } else if (o.kind == NodeKind::FxSobel) {
        P->maxKh16 = std::max(P->maxKh16, ps.kh);
      } else {
        P->maxKh8 = std::max(P->maxKh8, ps.kh);
      }
    }
    P->steps[rowStep].span = 1 + ps.count;
    P->sets.push_back(ps);
  }
  return P;
}

std::size_t fusedScratchBytes(const Graph& g, int width) {
  SIMDCV_REQUIRE(g.finalized(), "graph: call sink() first");
  if (!g.program_) return 0;  // not fusible, or a copy
  BandScratch unused;
  return layoutBand(*g.program_, g.nodes_, g.sink_,
                    static_cast<std::size_t>(width), nullptr, unused);
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

  const RunCtx ctx{*g.program_,
                   g.nodes_,
                   g.sink_,
                   src,
                   out,
                   p,
                   rows,
                   width,
                   static_cast<std::size_t>(width),
                   fusedScratchBytes(g, width),
                   prof::enabled(),
                   Kernels(p)};

  if (forcedBandRows > 0) {
    for (int b = 0; b < rows; b += forcedBandRows)
      runBand(ctx, {b, std::min(rows, b + forcedBandRows)});
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
    if (ctx.bandBytes > l2 / 2) grain = std::max(grain, 32 * seam);
    grain = std::min(grain, std::max(rows, 1));
    runtime::parallel_for(
        {0, rows}, [&ctx](runtime::Range band) { runBand(ctx, band); },
        grain);
  }
  dst = std::move(out);
}

}  // namespace detail
}  // namespace simdcv::graph
