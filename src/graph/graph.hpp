// simdcv::graph — pipeline-graph fusion engine.
//
// A Graph declares an image pipeline as a DAG of stages (separable
// convolutions, depth conversions, pointwise scaling, thresholding, gradient
// magnitude, weighted blends, or opaque whole-image functions) between one
// source and one sink. Execution picks between two bit-identical schedules:
//
//   staged  each stage runs its public kernel over the whole image, exactly
//           as calling sepFilter2D / convertTo / threshold / ... by hand
//           (a lowered integer Sobel calls sepFilter2DFxS16, byte-equal to
//           sepFilter2D) — this is the reference oracle;
//   fused   the whole graph streams through ksize-row ring buffers in row
//           bands: each stage's output rows live in an O(radius)-row ring in
//           the stage's declared depth (the exact bytes its staged
//           intermediate Mat would hold), so whole-image intermediates are
//           never materialized and the per-band working set stays
//           cache-resident.
//
// Because every fused stage applies the identical per-path kernel to the
// identical bytes as its staged counterpart (filter_detail / edge_detail /
// threshold detail / convert_detail selectors), fused output is bit-exact
// with staged output for every KernelPath, thread count, and band partition —
// the contract the `graph.*` entries in simdcv::check enforce.
//
// run() fuses every fusible graph that has intermediates to save (see
// fuseProfitable); that rule is the whole decision. When run() takes the
// staged schedule it borrows a graph-owned set of intermediates instead of
// allocating them, so repeated runs at one geometry touch no fresh memory.
// imgproc::edgeDetect is makeEdgeGraph run through here (edge_detect.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mat.hpp"
#include "imgproc/border.hpp"
#include "imgproc/threshold.hpp"
#include "simd/features.hpp"

namespace simdcv::graph {

/// Node handle. The source is always node 0; builder methods return the new
/// node's id. Inputs must name already-declared nodes (the graph is a DAG by
/// construction).
using NodeId = int;

/// Whole-image stage for operations outside the fusible vocabulary (median,
/// Otsu, warps...). Opaque stages always run staged.
///
/// Graph::run() reuses graph-owned intermediates across calls, so `dst` may
/// arrive holding the previous run's image at the same geometry: a stage must
/// write every pixel of its output or re-create it, and must not read what
/// `dst` held. A stage may instead point `dst` at other memory (`dst = src`,
/// a view, a Mat it keeps a copy of); run() drops such an intermediate before
/// reusing the set, so the next run never writes into memory anyone else sees.
using StageFn = std::function<void(const Mat& src, Mat& dst, KernelPath path)>;

enum class NodeKind : std::uint8_t {
  Source,
  SepConv,
  Convert,
  Pointwise,
  Threshold,
  Magnitude,
  AddWeighted,
  Morph,       ///< erode/dilate, rect SE, u8 -> u8, replicate border
  FxGaussian,  ///< fixed-point Q8 separable smoothing, u8 -> u8
  FxSobel,     ///< fixed-point integer-tap separable derivative, u8 -> s16
  Opaque,
};

const char* toString(NodeKind k) noexcept;

namespace detail {

/// One declared stage. Value type; inspect via Graph::node() in tests.
struct Node {
  NodeKind kind = NodeKind::Source;
  NodeId in0 = -1;
  NodeId in1 = -1;
  Depth depth = Depth::U8;  ///< output depth of this stage
  // SepConv
  std::vector<float> kx, ky;
  imgproc::BorderType border = imgproc::BorderType::Reflect101;
  double borderValue = 0.0;
  // Pointwise / AddWeighted
  double alpha = 1.0, beta = 0.0, gamma = 0.0;
  // Threshold
  double thresh = 0.0, maxval = 0.0;
  imgproc::ThresholdType ttype = imgproc::ThresholdType::Binary;
  // Morph (rect SE geometry; border is always Replicate)
  int morphKw = 3, morphKh = 3;
  bool morphMax = false;  ///< false = erode (min), true = dilate (max)
  // FxGaussian / FxSobel (fixed-point taps; border/borderValue shared above)
  std::vector<std::uint16_t> fxkx, fxky;  ///< Q8 taps, each sums to 256
  std::vector<std::int16_t> fxsx, fxsy;   ///< exact integer derivative taps
  // Opaque
  std::string name;
  StageFn fn;
  // Derived at sink(): how many rows of this node's output must stay live
  // around the current sink row in the fused schedule (0 for element-wise
  // consumers; grows by ky/2 across each downstream convolution).
  int radius = 0;
  int consumers = 0;
  const char* label = "";     ///< interned prof stage label
  /// Row-pass label: "<label>.rowConv" for SepConv/FxGaussian/FxSobel,
  /// "<label>.rowMorph" for Morph, "" otherwise.
  const char* rowLabel = "";
};

}  // namespace detail

class Graph;

namespace detail {
/// The fused schedule of a finalized fusible graph, compiled at sink()
/// (graph_fused.cpp).
struct RowProgram;
/// Reusable intermediate sets for run()'s staged schedule (graph.cpp).
struct StagedPool;
std::shared_ptr<const RowProgram> compileRowProgram(
    const std::vector<Node>& nodes);
void runFusedImpl(const Graph& g, const Mat& src, Mat& dst, KernelPath path,
                  int forcedBandRows);
/// Scratch bytes one fused band takes at this width (0 when the graph has
/// no row program).
std::size_t fusedScratchBytes(const Graph& g, int width);
}  // namespace detail

class Graph {
 public:
  // ---- building ------------------------------------------------------------
  // Build once (single-threaded), call sink() to freeze, then run() freely
  // (const, safe to call concurrently). Builder calls validate eagerly via
  // SIMDCV_REQUIRE: depths are restricted to U8/S16/F32, SepConv inputs to
  // U8/F32 (the separable engine's contract), kernels to odd lengths.

  /// Declare the source and its expected depth. Must be the first call.
  NodeId source(Depth depth);

  /// Separable convolution (kx horizontal, ky vertical) into `outDepth`
  /// (U8/S16/F32) — the sepFilter2D stage. Input depth must be U8 or F32.
  ///
  /// Exact integer lowering: when the input is U8, `outDepth` is S16, every
  /// tap is an integer in i16 range, 255*sum|kx| <= 32767 and
  /// 255*sum|kx|*max(sum|ky|, 1) <= 32767 (fxSobel's bound), and the border
  /// is not Constant or `borderValue` is an integer in [0, 255], this
  /// declares exactly the node fxSobel(input, <integer taps>, border,
  /// borderValue) would (NodeKind::FxSobel). Both give the same bytes: every
  /// float partial sum is then an integer below 2^24, exact in any order, and
  /// saturate_cast<s16> keeps it; the bound rules out wrap in the 16-bit
  /// engine. Otherwise the node is a float SepConv.
  NodeId sepConv(NodeId input, std::vector<float> kx, std::vector<float> ky,
                 Depth outDepth,
                 imgproc::BorderType border = imgproc::BorderType::Reflect101,
                 double borderValue = 0.0);

  /// Identity depth conversion (convertTo with alpha=1, beta=0).
  NodeId convert(NodeId input, Depth outDepth);

  /// Scaled conversion: out = saturate<outDepth>(in * alpha + beta).
  NodeId pointwise(NodeId input, Depth outDepth, double alpha, double beta);

  /// Fixed-level threshold, depth preserved (threshold() semantics including
  /// the U8 quantization / degenerate-level collapse).
  NodeId threshold(NodeId input, double thresh, double maxval,
                   imgproc::ThresholdType type);

  /// |gx|+|gy| saturating gradient magnitude: S16 x S16 -> U8.
  NodeId magnitude(NodeId gx, NodeId gy);

  /// Weighted blend: out = saturate(a*alpha + b*beta + gamma), depths equal.
  NodeId addWeighted(NodeId a, double alpha, NodeId b, double beta,
                     double gamma);

  /// Rect-SE morphology stage (erode when dilate=false), u8 -> u8 with the
  /// replicate border erode()/dilate() use. Fusible: streams through a
  /// kh-row u8 ring exactly like the banded morphRect engine.
  NodeId morph(NodeId input, bool dilate, int kw, int kh);

  /// Fixed-point Q8 separable smoothing (u8 -> u8): the graph form of
  /// sepFilter2DFxU8. Taps must be odd-length with each kernel summing to
  /// exactly 256 (use imgproc::quantizeKernelQ8). Under a Constant border,
  /// `borderValue` must be an integer (sepFilter2DFxU8 takes an int).
  NodeId fxGaussian(NodeId input, std::vector<std::uint16_t> kx,
                    std::vector<std::uint16_t> ky,
                    imgproc::BorderType border = imgproc::BorderType::Reflect101,
                    double borderValue = 0.0);

  /// Fixed-point separable derivative (u8 -> s16): the graph form of
  /// sepFilter2DFxS16. The i16 accumulator bound (255*sum|kx|*sum|ky| <=
  /// 32767) is asserted eagerly. Under a Constant border, `borderValue` must
  /// be an integer (sepFilter2DFxS16 takes an int).
  NodeId fxSobel(NodeId input, std::vector<std::int16_t> kx,
                 std::vector<std::int16_t> ky,
                 imgproc::BorderType border = imgproc::BorderType::Reflect101,
                 double borderValue = 0.0);

  /// Opaque whole-image stage; `name` labels it in the signature. A graph
  /// containing opaque stages is never fused.
  NodeId opaque(NodeId input, const std::string& name, Depth outDepth,
                StageFn fn);

  /// Freeze the graph with `node` as its output. Every declared node must lie
  /// on a path to the sink (no dangling stages). Computes radii, fusibility,
  /// the signature and the fused row program. Required before any run.
  void sink(NodeId node);

  // ---- introspection -------------------------------------------------------

  /// True when every stage is in the fusible vocabulary and every Wrap-border
  /// convolution reads the source directly (Wrap needs random row access,
  /// which ring buffers cannot stream for interior stages).
  bool fusible() const noexcept { return fusible_; }

  /// Stable per-structure identifier ("g.fxs3x3.fxs3x3@0.mag..."), the
  /// graph's name in examples, benches and test failure messages.
  const std::string& signature() const { return signature_; }

  /// Bytes of intermediate Mats the staged schedule materializes at this
  /// geometry (the final stage's output is dst in both schedules and is not
  /// counted) — the traffic the fused schedule keeps out of memory.
  std::size_t stagedBytes(int width, int rows) const;

  /// The scheduling decision run() makes, the same on every path: fused
  /// when fusible() and stagedBytes(width, rows) > 0.
  bool fuseProfitable(int width, int rows) const;

  int numNodes() const noexcept { return static_cast<int>(nodes_.size()); }
  NodeId sinkId() const noexcept { return sink_; }
  bool finalized() const noexcept { return sink_ >= 0; }
  const detail::Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }

  // ---- execution -----------------------------------------------------------

  /// Schedule-and-run: fused or staged per fuseProfitable. Output is
  /// bit-identical either way. `dst` may alias `src`. The staged schedule
  /// here writes into a borrowed graph-owned intermediate set, so the graph
  /// keeps at most (peak concurrent callers) sets, each at the geometry it
  /// last ran.
  void run(const Mat& src, Mat& dst,
           KernelPath path = KernelPath::Default) const;

  /// Force the stage-by-stage schedule (the reference oracle). Allocates
  /// its intermediates per call and keeps none, so an oracle run at a large
  /// geometry leaves no memory behind.
  void runStaged(const Mat& src, Mat& dst,
                 KernelPath path = KernelPath::Default) const;

  /// Force the ring-buffer streaming schedule. Requires fusible().
  void runFused(const Mat& src, Mat& dst,
                KernelPath path = KernelPath::Default) const;

 private:
  NodeId addNode(detail::Node n);
  void requireBuilding(const char* what) const;
  const detail::Node& inputNode(NodeId id, const char* what) const;
  std::uint64_t ioBytes(const Mat& src) const;
  /// The staged body: intermediates go into `vals` (nodes_.size() slots, or
  /// none for a graph without intermediates); the sink writes into dst.
  void runStagedInto(const Mat& src, Mat& dst, KernelPath path,
                     std::vector<Mat>& vals) const;
  /// runStagedInto on a set borrowed from stagedPool_.
  void runPooled(const Mat& src, Mat& dst, KernelPath path) const;

  std::vector<detail::Node> nodes_;
  NodeId sink_ = -1;
  bool fusible_ = false;
  std::string signature_;
  int sourceRadius_ = 0;   ///< seam depth: rows of source recomputed per band
  int maxKh_ = 1;
  double rowOpCost_ = 1.0; ///< per-row cost estimate for the band grain
  /// The fused row program (null unless fusible with a stage to run).
  std::shared_ptr<const detail::RowProgram> program_;
  /// run()'s staged intermediate sets (null unless the graph has an
  /// intermediate), shared by copies and concurrent callers.
  std::shared_ptr<detail::StagedPool> stagedPool_;

  friend void detail::runFusedImpl(const Graph& g, const Mat& src, Mat& dst,
                                   KernelPath path, int forcedBandRows);
  friend std::size_t detail::fusedScratchBytes(const Graph& g, int width);
};

namespace detail {

/// Run the fused schedule serially over fixed-height row bands (>= 1) — the
/// band-seam test hook.
inline void runFusedBanded(const Graph& g, const Mat& src, Mat& dst,
                           KernelPath path, int bandRows) {
  SIMDCV_REQUIRE(bandRows >= 1, "graph: bandRows must be >= 1");
  runFusedImpl(g, src, dst, path, bandRows);
}

}  // namespace detail

// ---- prebuilt graphs -------------------------------------------------------
// The chains the library itself uses, expressed as graphs. Each returns a
// finalized Graph whose output is byte-equal to the direct-call chain it
// mirrors.

/// edgeDetect as a graph: sobelX/sobelY (S16) -> magnitude -> binary
/// threshold; imgproc::edgeDetect runs it. On U8 at ksize 3/5 the Sobel pair
/// lowers to FxSobel nodes (see sepConv); both schedules are byte-equal to
/// edgeDetectUnfused.
Graph makeEdgeGraph(Depth srcDepth, double thresh, int ksize,
                    imgproc::BorderType border);

/// GaussianBlur as a (single-stage) graph.
Graph makeBlurGraph(Depth srcDepth, int kw, int kh, double sigmaX,
                    double sigmaY, imgproc::BorderType border);

/// Binary threshold as a (single-stage) graph.
Graph makeThresholdGraph(Depth srcDepth, double thresh, double maxval,
                         imgproc::ThresholdType type);

/// Gaussian blur -> Sobel X (S16) -> binary threshold: the classic smoothed
/// edge chain (a non-edge-pipeline multi-stage fusion target).
Graph makeBlurSobelThresholdGraph(Depth srcDepth, int blurKsize, double sigma,
                                  int sobelKsize, double thresh,
                                  imgproc::BorderType border);

/// The photo_pipeline tone-map + unsharp chain on U8 input:
/// cvt F32 -> blur(5,0.9) -> tone pointwise(1.12,-8) -> blur(7,1.4) ->
/// addWeighted(toned*2.4 - blurred*1.4) -> cvt U8.
Graph makePhotoGraph(int toneBlurKsize, double toneSigma, int unsharpKsize,
                     double unsharpSigma, double toneAlpha, double toneBeta,
                     double unsharpAmount);

/// All-integer edge chain on U8 input: fixed-point Gaussian (Q8 taps) ->
/// fixed-point Sobel (dx,dy)=(1,0) -> binary threshold on S16. The B6
/// fixed-point tier as a fusible pipeline.
Graph makeFxEdgeGraph(int blurKsize, double sigma, int sobelKsize,
                      double thresh, imgproc::BorderType border);

/// Morphological gradient on U8 input: fixed-point Gaussian denoise ->
/// {dilate, erode} (rect kw x kh) -> addWeighted(dilated - eroded). Covers
/// the Morph node in the multi-consumer position.
Graph makeMorphGradientGraph(int blurKsize, double sigma, int kw, int kh);

}  // namespace simdcv::graph
