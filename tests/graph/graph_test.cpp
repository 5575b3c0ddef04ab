// Pipeline-graph engine: builder validation, fusibility rules, fused-vs-
// staged bit-exactness on edge-case geometries (1x1, 1xW, Hx1), all border
// modes, ROI/non-contiguous sources, ksize-1 stages, adversarial band
// heights over every factory graph, concurrent runs of one graph, the
// fuse-decision model, and the exact integer lowering of u8 -> s16
// convolutions (byte-equal to the float engine).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/convert.hpp"
#include "graph/graph.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/fixedpoint.hpp"
#include "imgproc/kernels.hpp"
#include "imgproc/threshold.hpp"
#include "prof/prof.hpp"
#include "simd/caps.hpp"
#include "simd/features.hpp"

#include "graph_test_support.hpp"

namespace simdcv::graph {
namespace {

using testing::factoryGraphs;
using testing::makeScannerShapedGraph;
using testing::randomMat;

std::vector<KernelPath> paths() { return caps::availablePaths(); }

std::vector<imgproc::BorderType> allBorders() {
  return {imgproc::BorderType::Constant, imgproc::BorderType::Replicate,
          imgproc::BorderType::Reflect, imgproc::BorderType::Reflect101,
          imgproc::BorderType::Wrap};
}

// The test pipeline exercising every fused stage kind plus a multi-consumer
// node: cvt F32 -> blur -> pointwise -> {conv, blend} -> cvt U8.
Graph photoGraph() { return makePhotoGraph(5, 0.9, 7, 1.4, 1.12, -8.0, 1.4); }

void expectFusedMatchesStaged(const Graph& g, const Mat& src,
                              const char* what) {
  Mat ref;
  g.runStaged(src, ref, KernelPath::ScalarNoVec);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat staged, fused;
    g.runStaged(src, staged, p);
    EXPECT_EQ(countMismatches(ref, staged), 0u)
        << what << " staged " << toString(p);
    g.runFused(src, fused, p);
    EXPECT_EQ(countMismatches(ref, fused), 0u)
        << what << " fused " << toString(p);
  }
}

// ---- builder validation ----------------------------------------------------

TEST(GraphBuild, ValidatesEagerly) {
  Graph g;
  EXPECT_THROW(g.sepConv(0, {1.f}, {1.f}, Depth::U8), Error);  // no source yet
  const NodeId s = g.source(Depth::U8);
  EXPECT_THROW(g.source(Depth::U8), Error);  // second source
  EXPECT_THROW(g.sepConv(s, {1.f, 1.f}, {1.f}, Depth::U8), Error);  // even kx
  EXPECT_THROW(g.sepConv(s, {}, {1.f}, Depth::U8), Error);          // empty kx
  EXPECT_THROW(g.sepConv(7, {1.f}, {1.f}, Depth::U8), Error);  // bad input id
  EXPECT_THROW(g.magnitude(s, s), Error);  // magnitude wants s16 inputs
  const NodeId t = g.threshold(s, 10, 255, imgproc::ThresholdType::Binary);
  const NodeId dangling = g.convert(s, Depth::F32);
  (void)dangling;
  EXPECT_THROW(g.sink(t), Error);  // dangling node never reaches the sink
}

TEST(GraphBuild, S16ConvInputRejected) {
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId c = g.convert(s, Depth::S16);
  EXPECT_THROW(g.sepConv(c, {1.f}, {1.f}, Depth::S16), Error);
}

// ---- exact integer lowering -------------------------------------------------

// One sepConv node off a fresh source, as the sink of a finalized graph.
Graph oneConv(Depth in, std::vector<float> kx, std::vector<float> ky,
              Depth out,
              imgproc::BorderType border = imgproc::BorderType::Reflect101,
              double borderValue = 0.0) {
  Graph g;
  const NodeId s = g.source(in);
  g.sink(g.sepConv(s, std::move(kx), std::move(ky), out, border, borderValue));
  return g;
}

TEST(GraphBuild, SepConvLowersExactIntegerTaps) {
  const Mat src = randomMat(19, 23, Depth::U8, 21);
  for (int ksize : {3, 5}) {
    for (const auto& [dx, dy] :
         std::vector<std::pair<int, int>>{{1, 0}, {0, 1}, {2, 0}}) {
      std::vector<float> kx, ky;
      imgproc::getDerivKernels(kx, ky, dx, dy, ksize, /*normalize=*/false);
      for (imgproc::BorderType b : allBorders()) {
        const Graph g = oneConv(Depth::U8, kx, ky, Depth::S16, b);
        ASSERT_EQ(g.node(1).kind, NodeKind::FxSobel)
            << ksize << " " << dx << dy << " " << toString(b);
        ASSERT_EQ(g.node(1).fxsx.size(), kx.size());
        for (std::size_t i = 0; i < kx.size(); ++i)
          EXPECT_EQ(g.node(1).fxsx[i], static_cast<std::int16_t>(kx[i]));
        // Bytes: the lowered node equals the float Sobel on every path.
        Mat ref;
        imgproc::Sobel(src, ref, Depth::S16, dx, dy, ksize, 1.0, b,
                       KernelPath::ScalarNoVec);
        for (KernelPath p : caps::availablePaths()) {
          Mat staged, fused;
          g.runStaged(src, staged, p);
          g.runFused(src, fused, p);
          EXPECT_EQ(countMismatches(ref, staged), 0u) << toString(p);
          EXPECT_EQ(countMismatches(ref, fused), 0u) << toString(p);
        }
      }
    }
  }
}

TEST(GraphBuild, SepConvKeepsFloatWhenLoweringIsInexact) {
  std::vector<float> kx7, ky7;  // 7x7 Sobel: 255*20*64 > 32767
  imgproc::getDerivKernels(kx7, ky7, 1, 0, 7, /*normalize=*/false);
  EXPECT_EQ(oneConv(Depth::U8, kx7, ky7, Depth::S16).node(1).kind,
            NodeKind::SepConv);
  const std::vector<float> k3 = {-1.f, 0.f, 1.f}, s3 = {1.f, 2.f, 1.f};
  EXPECT_EQ(oneConv(Depth::U8, {-0.5f, 0.f, 0.5f}, s3, Depth::S16)
                .node(1).kind,
            NodeKind::SepConv);  // non-integer tap
  EXPECT_EQ(oneConv(Depth::F32, k3, s3, Depth::S16).node(1).kind,
            NodeKind::SepConv);  // f32 input
  EXPECT_EQ(oneConv(Depth::U8, k3, s3, Depth::F32).node(1).kind,
            NodeKind::SepConv);  // f32 output
  EXPECT_EQ(oneConv(Depth::U8, {40000.f}, {0.f}, Depth::S16).node(1).kind,
            NodeKind::SepConv);  // tap outside i16
  // Constant borders lower only for an integer border value in [0, 255].
  const Mat src = randomMat(9, 12, Depth::U8, 22);
  for (double bv : {0.0, 255.0, 3.7, 300.0, -1.0}) {
    const Graph g =
        oneConv(Depth::U8, k3, s3, Depth::S16, imgproc::BorderType::Constant, bv);
    const bool lowers = bv == 0.0 || bv == 255.0;
    EXPECT_EQ(g.node(1).kind, lowers ? NodeKind::FxSobel : NodeKind::SepConv)
        << bv;
    Mat ref, got;
    imgproc::sepFilter2D(src, ref, Depth::S16, k3, s3,
                         imgproc::BorderType::Constant, bv,
                         KernelPath::ScalarNoVec);
    g.run(src, got);
    EXPECT_EQ(countMismatches(ref, got), 0u) << bv;
  }
}

// The fixed-point nodes take an integer Constant border value, as
// sepFilter2DFxU8 / sepFilter2DFxS16 do. A fractional one is rejected at
// declaration: the staged schedule would truncate it to the engine's int
// while the fused one rounded it, so at 7.5 the two schedules gave
// different bytes. Non-Constant borders never read the value.
TEST(GraphBuild, FxNodesRejectFractionalConstantBorder) {
  const auto q = imgproc::quantizeKernelQ8(imgproc::getGaussianKernel(5, 1.1));
  const std::vector<std::int16_t> dx = {-1, 0, 1}, sy = {1, 2, 1};
  for (double bv : {7.5, 7.6, 200.4, -0.5}) {
    Graph g;
    const NodeId s = g.source(Depth::U8);
    EXPECT_THROW(g.fxGaussian(s, q, q, imgproc::BorderType::Constant, bv),
                 Error)
        << bv;
    EXPECT_THROW(g.fxSobel(s, dx, sy, imgproc::BorderType::Constant, bv),
                 Error)
        << bv;
  }
  Graph g;
  const NodeId s = g.source(Depth::U8);
  EXPECT_NO_THROW(g.fxGaussian(s, q, q, imgproc::BorderType::Replicate, 7.5));
  EXPECT_NO_THROW(g.fxSobel(s, dx, sy, imgproc::BorderType::Reflect, 7.5));
}

// Integer Constant border values, in range and saturated, give the same
// bytes fused and staged.
TEST(GraphExec, FxConstantBorderFusedMatchesStaged) {
  const Mat src = randomMat(13, 9, Depth::U8, 23);
  const auto q = imgproc::quantizeKernelQ8(imgproc::getGaussianKernel(5, 1.1));
  const std::vector<std::int16_t> dx = {-1, 0, 1}, sy = {1, 2, 1};
  for (double bv : {0.0, 7.0, 200.0, 300.0, -4.0}) {
    Graph blur;
    blur.sink(blur.fxGaussian(blur.source(Depth::U8), q, q,
                              imgproc::BorderType::Constant, bv));
    expectFusedMatchesStaged(blur, src, "fxGaussian constant border");
    Graph sobel;
    sobel.sink(sobel.fxSobel(sobel.source(Depth::U8), dx, sy,
                             imgproc::BorderType::Constant, bv));
    expectFusedMatchesStaged(sobel, src, "fxSobel constant border");
  }
}

TEST(GraphBuild, FrozenAfterSink) {
  Graph g;
  const NodeId s = g.source(Depth::U8);
  g.sink(g.threshold(s, 10, 255, imgproc::ThresholdType::Binary));
  EXPECT_TRUE(g.finalized());
  EXPECT_THROW(g.convert(0, Depth::F32), Error);
  EXPECT_THROW(g.sink(0), Error);
}

TEST(GraphBuild, AddWeightedDepthsMustMatch) {
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId f = g.convert(s, Depth::F32);
  EXPECT_THROW(g.addWeighted(s, 0.5, f, 0.5, 0.0), Error);
}

// ---- fusibility + introspection --------------------------------------------

TEST(GraphIntrospect, OpaqueNeverFusible) {
  Graph g;
  const NodeId s = g.source(Depth::U8);
  g.sink(g.opaque(s, "nop", Depth::U8,
                  [](const Mat& a, Mat& d, KernelPath) { a.copyTo(d); }));
  EXPECT_FALSE(g.fusible());
  const Mat src = randomMat(9, 11, Depth::U8, 1);
  Mat run, staged;
  g.run(src, run);  // dispatches staged
  g.runStaged(src, staged);
  EXPECT_EQ(countMismatches(run, staged), 0u);
  EXPECT_THROW(g.runFused(src, run), Error);
}

TEST(GraphIntrospect, WrapOnInteriorStageNotFusible) {
  Graph src0;  // Wrap reading the source: streamable
  NodeId s = src0.source(Depth::U8);
  src0.sink(src0.sepConv(s, {1.f, 2.f, 1.f}, {1.f, 0.f, -1.f}, Depth::S16,
                         imgproc::BorderType::Wrap));
  EXPECT_TRUE(src0.fusible());

  Graph inner;  // Wrap reading an interior stage: needs random access
  s = inner.source(Depth::U8);
  const NodeId blur = inner.sepConv(s, {0.25f, 0.5f, 0.25f},
                                    {0.25f, 0.5f, 0.25f}, Depth::U8);
  inner.sink(inner.sepConv(blur, {1.f, 2.f, 1.f}, {1.f, 0.f, -1.f},
                           Depth::S16, imgproc::BorderType::Wrap));
  EXPECT_FALSE(inner.fusible());
  // run() still works — it degrades to the staged schedule.
  const Mat m = randomMat(8, 9, Depth::U8, 2);
  Mat a, b;
  inner.run(m, a);
  inner.runStaged(m, b);
  EXPECT_EQ(countMismatches(a, b), 0u);
}

TEST(GraphIntrospect, SignatureAndStagedBytes) {
  const Graph g = makeEdgeGraph(Depth::U8, 100.0, 3,
                                imgproc::BorderType::Reflect101);
  EXPECT_EQ(g.signature(), "g.fxs3x3.fxs3x3@0.mag@1-2.thru8t0");
  // Intermediates: two S16 gradients + the U8 magnitude = 5 bytes/px.
  EXPECT_EQ(g.stagedBytes(640, 480), 640u * 480u * 5u);
  // Per-node introspection: derived live-window radii.
  EXPECT_EQ(g.node(1).radius, 0);  // gx feeds element-wise magnitude only
  EXPECT_EQ(g.node(g.sinkId()).radius, 0);
}

TEST(GraphIntrospect, RadiiAccumulateAcrossConvolutions) {
  const Graph g = photoGraph();
  // source -> cvt(1) -> blur5(2) -> pointwise(3) -> blur7(4) ->
  // addWeighted(5, reads 3 and 4) -> cvt(6, sink)
  EXPECT_EQ(g.node(3).radius, 3);  // kept live across the 7-tap blur
  EXPECT_EQ(g.node(1).radius, 5);  // blur5's window plus blur5's own hold
  EXPECT_EQ(g.node(0).radius, 5);  // seam depth: both blurs stacked
  EXPECT_TRUE(g.fusible());
}

TEST(GraphIntrospect, FuseProfitableModel) {
  // One rule on every path and at every size: a fusible graph with
  // intermediates to save runs fused.
  const Graph g = makeEdgeGraph(Depth::U8, 100.0, 3,
                                imgproc::BorderType::Reflect101);
  for (const auto& [w, h] : std::vector<std::pair<int, int>>{
           {64, 48}, {640, 480}, {4096, 4096}})
    EXPECT_TRUE(g.fuseProfitable(w, h)) << w << "x" << h;
  // run() takes that schedule on every selectable path, which its trace
  // span names.
  if (prof::kCompiledIn) {
    const Mat src = randomMat(48, 64, Depth::U8, 16);
    for (KernelPath p : caps::availablePaths()) {
      prof::reset();
      prof::setEnabled(true);
      Mat out;
      g.run(src, out, p);
      prof::setEnabled(false);
      const prof::Snapshot snap = prof::snapshot();
      std::uint64_t fused = 0, staged = 0;
      for (const auto& k : snap.kernels) {
        if (k.name == "graph.fused") fused += k.count;
        if (k.name == "graph.staged") staged += k.count;
      }
      EXPECT_EQ(fused, 1u) << toString(p);
      EXPECT_EQ(staged, 0u) << toString(p);
    }
    prof::reset();
  }
  // A single-stage graph has no intermediates to save.
  const Graph one = makeThresholdGraph(Depth::U8, 128, 255,
                                       imgproc::ThresholdType::Binary);
  EXPECT_EQ(one.stagedBytes(640, 480), 0u);
  EXPECT_FALSE(one.fuseProfitable(640, 480));
}

// ---- fused == staged: stage vocabulary & prebuilt chains --------------------

// The U8 edge graph lowers its Sobel pair to FxSobel at ksize 3/5 and keeps
// the float engine at 7; either way every schedule (and edgeDetect) must
// equal the float chain byte for byte, on every path, border and geometry.
TEST(GraphExec, EdgeGraphMatchesEdgeDetectUnfused) {
  const Mat parent = randomMat(40, 50, Depth::U8, 3);
  // Low-contrast copy, so the threshold splits the magnitudes instead of
  // seeing them all saturate.
  Mat soft(40, 50, U8C1);
  for (int r = 0; r < soft.rows(); ++r)
    for (int c = 0; c < soft.cols(); ++c)
      soft.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(
          96 + (parent.at<std::uint8_t>(r, c) & 15) + (c > 25 ? 40 : 0));
  const std::vector<std::pair<const char*, Mat>> sources = {
      {"31x29", parent.roi({0, 0, 29, 31}).clone()},
      {"soft", soft},
      {"1x1", parent.roi({3, 4, 1, 1}).clone()},
      {"1xN", parent.roi({0, 5, 37, 1}).clone()},
      {"Nx1", parent.roi({6, 0, 1, 33}).clone()},
      {"roi", parent.roi({5, 3, 30, 20})},
  };
  for (const auto& [what, src] : sources) {
    for (imgproc::BorderType b : allBorders()) {
      for (int ksize : {3, 5, 7}) {
        const double thresh = ksize == 3 ? 120.0 : 250.0;
        const Graph g = makeEdgeGraph(Depth::U8, thresh, ksize, b);
        EXPECT_EQ(g.node(1).kind,
                  ksize < 7 ? NodeKind::FxSobel : NodeKind::SepConv);
        Mat ref;
        imgproc::edgeDetectUnfused(src, ref, thresh, ksize, b,
                                   KernelPath::ScalarNoVec);
        for (KernelPath p : caps::availablePaths()) {
          Mat staged, fused, run, detect;
          g.runStaged(src, staged, p);
          g.runFused(src, fused, p);
          g.run(src, run, p);
          imgproc::edgeDetect(src, detect, thresh, ksize, b, p);
          for (const Mat* m : {&staged, &fused, &run, &detect})
            EXPECT_EQ(countMismatches(ref, *m), 0u)
                << what << " " << toString(b) << " ksize=" << ksize << " "
                << toString(p);
        }
      }
    }
  }
}

TEST(GraphExec, PhotoGraphAllStageKinds) {
  const Graph g = photoGraph();
  expectFusedMatchesStaged(g, randomMat(37, 41, Depth::U8, 4), "photo");
}

TEST(GraphExec, BlurSobelThreshold) {
  const Graph g = makeBlurSobelThresholdGraph(
      Depth::U8, 5, 1.1, 3, 700.0, imgproc::BorderType::Replicate);
  expectFusedMatchesStaged(g, randomMat(26, 33, Depth::U8, 5), "bst");
}

TEST(GraphExec, SingleNodeGraphIsACopy) {
  Graph g;
  g.sink(g.source(Depth::S16));
  const Mat src = randomMat(7, 9, Depth::S16, 6);
  Mat a, b;
  g.run(src, a);
  g.runFused(src, b);
  EXPECT_EQ(countMismatches(src, a), 0u);
  EXPECT_EQ(countMismatches(src, b), 0u);
}

TEST(GraphExec, KsizeOneStages) {
  // 1x1 "convolutions" (pure scaling taps) still stream: radius 0, ring
  // height 1, no padding.
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId a = g.sepConv(s, {2.0f}, {1.5f}, Depth::F32);
  g.sink(g.threshold(a, 300.0, 999.0, imgproc::ThresholdType::Trunc));
  EXPECT_TRUE(g.fusible());
  expectFusedMatchesStaged(g, randomMat(13, 17, Depth::U8, 7), "ksize1");
}

TEST(GraphExec, MixedKernelWidths1x5And5x1) {
  Graph g;
  const NodeId s = g.source(Depth::F32);
  const NodeId h = g.sepConv(s, {.1f, .2f, .4f, .2f, .1f}, {1.f}, Depth::F32);
  g.sink(g.sepConv(h, {1.f}, {.1f, .2f, .4f, .2f, .1f}, Depth::F32));
  expectFusedMatchesStaged(g, randomMat(12, 19, Depth::F32, 8), "separated");
}

// ---- geometry edge cases ---------------------------------------------------

/// A node read by several stages at different window radii: cvt F32 (a) ->
/// 3x3 blur (b) -> {5x5 blur (c), pointwise (d)} -> blend(c, d) -> blend
/// with a -> cvt U8.
Graph multiConsumerGraph() {
  const std::vector<float> k3 = {0.25f, 0.5f, 0.25f};
  const std::vector<float> k5 = {0.0625f, 0.25f, 0.375f, 0.25f, 0.0625f};
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId a = g.convert(s, Depth::F32);
  const NodeId b = g.sepConv(a, k3, k3, Depth::F32);
  const NodeId c = g.sepConv(b, k5, k5, Depth::F32,
                             imgproc::BorderType::Constant, 12.5);
  const NodeId d = g.pointwise(b, Depth::F32, 1.5, -20.0);
  const NodeId e = g.addWeighted(c, 0.5, d, 0.5, 0.0);
  const NodeId f = g.addWeighted(e, 1.25, a, -0.25, 3.0);
  g.sink(g.convert(f, Depth::U8));
  return g;
}

/// Sibling windowed nodes that share padded source rows: a fixed-point
/// Gaussian and a dilation (same 3x3 window, Replicate border, one shared
/// consumer), and an fxSobel pair under a Constant border.
Graph siblingWindowsGraph() {
  const std::vector<std::uint16_t> q = {64, 128, 64};
  const std::vector<std::int16_t> d = {-1, 0, 1}, sm = {1, 2, 1};
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId blur =
      g.fxGaussian(s, q, q, imgproc::BorderType::Replicate, 0.0);
  const NodeId dil = g.morph(s, /*dilate=*/true, 3, 3);
  const NodeId soft = g.addWeighted(blur, 0.5, dil, 0.5, 0.0);
  const NodeId gx = g.fxSobel(s, d, sm, imgproc::BorderType::Constant, 7.0);
  const NodeId gy = g.fxSobel(s, sm, d, imgproc::BorderType::Constant, 7.0);
  const NodeId mag = g.magnitude(gx, gy);
  const NodeId mix = g.addWeighted(soft, 1.0, mag, 1.0, -40.0);
  g.sink(g.threshold(mix, 100.0, 255.0, imgproc::ThresholdType::Binary));
  return g;
}

// The factory graphs plus the two shapes the executor treats specially: a
// node read at several radii and sibling windows sharing padded rows.
std::vector<testing::NamedGraph> seamGraphs() {
  std::vector<testing::NamedGraph> v = factoryGraphs();
  v.push_back({"multi-consumer", multiConsumerGraph(), Depth::U8});
  v.push_back({"sibling-windows", siblingWindowsGraph(), Depth::U8});
  return v;
}

TEST(GraphExec, DegenerateGeometries) {
  for (const auto& [rows, cols] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 37}, {37, 1}, {2, 2}, {3, 5}}) {
    for (const auto& [name, g, depth] : seamGraphs()) {
      const Mat src = randomMat(rows, cols, depth, 9);
      expectFusedMatchesStaged(
          g, src,
          (name + " " + std::to_string(rows) + "x" + std::to_string(cols))
              .c_str());
    }
  }
}

TEST(GraphExec, AllBorderModes) {
  const Mat src = randomMat(11, 14, Depth::U8, 10);
  for (imgproc::BorderType b : allBorders()) {
    expectFusedMatchesStaged(makeEdgeGraph(Depth::U8, 90.0, 5, b), src,
                             toString(b));
  }
}

TEST(GraphExec, RoiNonContiguousSource) {
  const Mat parent = randomMat(40, 50, Depth::U8, 11);
  for (const Rect& r : std::vector<Rect>{
           {5, 3, 30, 20}, {1, 0, 40, 1}, {0, 7, 1, 30}, {1, 1, 48, 38}}) {
    const Mat roi = parent.roi(r);
    ASSERT_TRUE(roi.rows() == 1 || !roi.isContinuous());
    expectFusedMatchesStaged(
        makeEdgeGraph(Depth::U8, 120.0, 3, imgproc::BorderType::Replicate),
        roi, "roi-edge");
    expectFusedMatchesStaged(photoGraph(), roi, "roi-photo");
  }
}

TEST(GraphExec, InPlaceDstAliasingSrc) {
  const Graph g = makeThresholdGraph(Depth::U8, 100, 255,
                                     imgproc::ThresholdType::Binary);
  const Mat src = randomMat(15, 21, Depth::U8, 12);
  Mat ref;
  g.runStaged(src, ref);
  Mat inplace;
  src.copyTo(inplace);
  g.runFused(inplace, inplace);
  EXPECT_EQ(countMismatches(ref, inplace), 0u);
}

// ---- band partitions -------------------------------------------------------

// Every band of a forced partition primes its seam rows through the program
// prefix; the prefix clamps at the image top and bottom, so 1-row, 1-column
// and ROI sources run beside a plain one. Heights split inside the seam
// (1, 2, seam-1), at it (seam), and leave one seam (rows-1) or none (rows).
TEST(GraphExec, BandSeamsBitExactAllHeights) {
  for (const auto& [name, g, depth] : seamGraphs()) {
    const int seam = 2 * g.node(0).radius + 1;
    const Mat parent = randomMat(30, 40, depth, 13);
    const std::vector<std::pair<const char*, Mat>> sources = {
        {"23x17", randomMat(23, 17, depth, 14)},
        {"1-row", parent.roi({3, 5, 17, 1})},
        {"1-col", parent.roi({6, 2, 1, 23})},
        {"roi", parent.roi({5, 3, 21, 19})},
    };
    for (const auto& [what, src] : sources) {
      Mat ref;
      g.runStaged(src, ref, KernelPath::ScalarNoVec);
      std::vector<int> heights;
      for (int h : {1, 2, seam - 1, seam, src.rows() - 1, src.rows()})
        if (h >= 1 && h <= src.rows() &&
            std::find(heights.begin(), heights.end(), h) == heights.end())
          heights.push_back(h);
      for (KernelPath p : paths()) {
        for (int bandRows : heights) {
          Mat got;
          detail::runFusedBanded(g, src, got, p, bandRows);
          EXPECT_EQ(countMismatches(ref, got), 0u)
              << name << " " << what << " " << toString(p)
              << " bandRows=" << bandRows;
        }
      }
    }
  }
}

TEST(GraphExec, BandedHookRejectsNonPositiveHeights) {
  const Graph g = photoGraph();
  const Mat src = randomMat(9, 11, Depth::U8, 17);
  for (int bandRows : {0, -1, -7}) {
    Mat dst;
    EXPECT_THROW(detail::runFusedBanded(g, src, dst, KernelPath::Default,
                                        bandRows),
                 Error)
        << bandRows;
  }
}

// The serve presets share static const graphs between workers: run() must
// be safe to call concurrently. Four threads run one graph at two
// alternating geometries (run under ThreadSanitizer by scripts/verify.sh).
// The scanner-shaped graph runs staged, so the threads also share its pool
// of intermediate sets, which the geometry change forces to re-create.
TEST(GraphExec, ConcurrentRunsOfOneGraph) {
  const Mat a = randomMat(48, 64, Depth::U8, 31);
  const Mat b = randomMat(29, 97, Depth::U8, 32);
  std::vector<testing::NamedGraph> graphs = factoryGraphs();
  graphs.push_back({"scanner-shaped", makeScannerShapedGraph(), Depth::U8});
  for (const auto& [name, g, depth] : graphs) {
    if (depth != Depth::U8) continue;
    Mat refA, refB;
    g.runStaged(a, refA);
    g.runStaged(b, refB);
    std::atomic<int> mismatched{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
      workers.emplace_back([&, t] {
        Mat out;
        for (int i = 0; i < 24; ++i) {
          const bool useA = (i + t) % 2 == 0;
          g.run(useA ? a : b, out);
          if (countMismatches(useA ? refA : refB, out) != 0) ++mismatched;
        }
      });
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(mismatched.load(), 0) << name;
  }
}

// run() reuses one intermediate set across calls. A stage may point its
// output at memory the caller sees — here a pass-through of the source
// (dst = src, taken only when the top-left pixel is 0), a kept copy of its
// output, and a sink that passes its input through to the caller — and the
// next run must not write into that memory.
TEST(GraphExec, PooledIntermediatesNeverWriteCallerMemory) {
  auto kept = std::make_shared<Mat>();
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId pass = g.opaque(
      s, "pass-if-dark", Depth::U8, [](const Mat& a, Mat& d, KernelPath p) {
        if (a.at<std::uint8_t>(0, 0) == 0)
          d = a;
        else
          core::convertTo(a, d, Depth::U8, 1.0, 1.0, p);
      });
  const NodeId inv = g.opaque(
      pass, "invert-keep", Depth::U8, [kept](const Mat& a, Mat& d, KernelPath p) {
        core::convertTo(a, d, Depth::U8, -1.0, 255.0, p);
        *kept = d;
      });
  g.sink(g.opaque(inv, "pass", Depth::U8,
                  [](const Mat& a, Mat& d, KernelPath) { d = a; }));
  ASSERT_FALSE(g.fusible());

  Mat a = randomMat(23, 37, Depth::U8, 51);
  Mat b = randomMat(23, 37, Depth::U8, 52);
  a.at<std::uint8_t>(0, 0) = 0;
  b.at<std::uint8_t>(0, 0) = 1;
  const Mat aBefore = a.clone();
  Mat refA, refB;
  g.runStaged(a, refA);
  const Mat keptA = kept->clone();
  g.runStaged(b, refB);

  Mat outA, outB;
  g.run(a, outA);
  const Mat keptByRunA = *kept;
  g.run(b, outB);
  EXPECT_EQ(countMismatches(a, aBefore), 0u) << "source A was written";
  EXPECT_EQ(countMismatches(outA, refA), 0u) << "output A was overwritten";
  EXPECT_EQ(countMismatches(keptByRunA, keptA), 0u)
      << "a stage's kept copy was overwritten";
  EXPECT_EQ(countMismatches(outB, refB), 0u);
}

TEST(GraphExec, ThresholdDegenerateLevels) {
  // Degenerate U8 levels collapse to fills/copies; the fused executor must
  // reproduce the staged dispatcher's per-type table.
  const Mat src = randomMat(9, 13, Depth::U8, 14);
  for (double thresh : {-5.0, 255.0, 300.0}) {
    for (auto t : {imgproc::ThresholdType::Binary,
                   imgproc::ThresholdType::BinaryInv,
                   imgproc::ThresholdType::Trunc,
                   imgproc::ThresholdType::ToZero,
                   imgproc::ThresholdType::ToZeroInv}) {
      Graph g;
      const NodeId s = g.source(Depth::U8);
      const NodeId blur = g.sepConv(s, {.25f, .5f, .25f}, {.25f, .5f, .25f},
                                    Depth::U8);
      g.sink(g.threshold(blur, thresh, 255.0, t));
      expectFusedMatchesStaged(g, src, "degenerate-threshold");
    }
  }
}

// run() must be pure scheduling: same bits whichever side the decision takes.
TEST(GraphExec, RunDispatchMatchesBothSchedules) {
  const Graph g = makeEdgeGraph(Depth::U8, 100.0, 3,
                                imgproc::BorderType::Reflect101);
  for (const auto& [rows, cols] :
       std::vector<std::pair<int, int>>{{48, 64}, {480, 640}}) {
    const Mat src = randomMat(rows, cols, Depth::U8, 15);
    Mat run, staged;
    g.run(src, run);
    g.runStaged(src, staged);
    EXPECT_EQ(countMismatches(run, staged), 0u) << rows << "x" << cols;
  }
}

}  // namespace
}  // namespace simdcv::graph
