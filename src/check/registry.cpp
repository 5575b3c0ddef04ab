// Kernel registry for the differential checker: every family maps a
// generated CaseSpec + KernelPath to an output Mat. Parameters beyond the
// Mat contents (thresholds, scale factors, kernel sizes...) are drawn from
// the case seed so a reproducer line regenerates them exactly.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "core/array_ops.hpp"
#include "core/convert.hpp"
#include "graph/graph.hpp"
#include "imgproc/color.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/fixedpoint.hpp"
#include "imgproc/kernels.hpp"
#include "imgproc/match.hpp"
#include "imgproc/median.hpp"
#include "imgproc/morphology.hpp"
#include "imgproc/resize.hpp"
#include "imgproc/threshold.hpp"

namespace simdcv::check {

namespace {

// Distinct salts per input stream so multi-input kernels get independent data.
constexpr std::uint64_t kSrcA = 1, kSrcB = 2;

int channelsFor(const CaseSpec& c) { return (c.variant & 4) ? 3 : 1; }

// Affine coefficient (alpha/beta/gamma of the scaled kernels). Cases with
// variant bit 8 set draw half their coefficients from a hostile pool: NaN,
// +/-Inf, magnitudes at and past the s32 rails, and the integer blend
// weights 1, -1, 0 (morphgrad's hi - lo). The rest are finite [lo, hi).
double coef(const CaseSpec& c, Rng& r, double lo, double hi) {
  static const std::vector<double> hostile = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      2147483648.0, -2147483649.0, 2147483646.5, 4294967296.0, -1e300,
      1.0, -1.0, 0.0, 0.5};
  if ((c.variant & 8) && r.chance(50)) return r.pick(hostile);
  return r.real(lo, hi);
}

// ---- convertTo -------------------------------------------------------------

Mat runConvert(const CaseSpec& c, KernelPath p, Depth sd, Depth dd, bool scaled) {
  Mat src = genMat(c, kSrcA, PixelType(sd, channelsFor(c)));
  double alpha = 1.0, beta = 0.0;
  if (scaled) {
    Rng r(c.seed ^ 0xa1fa6e7a11ull);
    alpha = coef(c, r, -4.0, 4.0);
    beta = coef(c, r, -300.0, 300.0);
  }
  Mat dst;
  core::convertTo(src, dst, dd, alpha, beta, p);
  return dst;
}

void addConvert(std::vector<KernelCheck>& reg, const char* name, Depth sd,
                Depth dd, bool scaled) {
  reg.push_back({name,
                 [sd, dd, scaled](const CaseSpec& c, KernelPath p) {
                   return runConvert(c, p, sd, dd, scaled);
                 },
                 Tolerance::Exact()});
}

// ---- threshold -------------------------------------------------------------

Mat runThreshold(const CaseSpec& c, KernelPath p, imgproc::ThresholdType t) {
  static const Depth depths[] = {Depth::U8, Depth::S16, Depth::F32};
  const Depth d = depths[c.variant % 3];
  Mat src = genMat(c, kSrcA, PixelType(d, channelsFor(c)));
  Rng r(c.seed ^ 0x7445e5401dull);
  double thresh = 0, maxval = 0;
  switch (d) {
    case Depth::U8:
      // Deliberately overshoot [0,255] to exercise the degenerate
      // fill/copy collapse in the dispatcher.
      thresh = r.real(-40.0, 300.0);
      maxval = r.real(-40.0, 300.0);
      break;
    case Depth::S16:
      thresh = r.real(-40000.0, 40000.0);
      maxval = r.real(-40000.0, 40000.0);
      break;
    default: {
      static const std::vector<double> pivots = {0.0, 0.5, -0.5, 255.5,
                                                 32767.5, -32768.5, 1e30};
      thresh = r.chance(30) ? r.pick(pivots) : r.real(-1e4, 1e4);
      maxval = r.real(-1e4, 1e4);
      break;
    }
  }
  Mat dst;
  imgproc::threshold(src, dst, thresh, maxval, t, p);
  return dst;
}

void addThreshold(std::vector<KernelCheck>& reg, const char* name,
                  imgproc::ThresholdType t) {
  reg.push_back({name,
                 [t](const CaseSpec& c, KernelPath p) {
                   return runThreshold(c, p, t);
                 },
                 Tolerance::Exact()});
}

// ---- element-wise array ops ------------------------------------------------

using BinFn = void (*)(const Mat&, const Mat&, Mat&, KernelPath);

Mat runBinOp(const CaseSpec& c, KernelPath p, BinFn fn, bool intOnly) {
  static const Depth allDepths[] = {Depth::U8, Depth::S16, Depth::F32};
  static const Depth intDepths[] = {Depth::U8, Depth::S16};
  const Depth d = intOnly ? intDepths[c.variant % 2] : allDepths[c.variant % 3];
  const PixelType type(d, channelsFor(c));
  Mat a = genMat(c, kSrcA, type);
  Mat b = genMat(c, kSrcB, type);
  Mat dst;
  fn(a, b, dst, p);
  return dst;
}

void addBinOp(std::vector<KernelCheck>& reg, const char* name, BinFn fn,
              bool intOnly) {
  reg.push_back({name,
                 [fn, intOnly](const CaseSpec& c, KernelPath p) {
                   return runBinOp(c, p, fn, intOnly);
                 },
                 Tolerance::Exact()});
}

Mat runScaleAdd(const CaseSpec& c, KernelPath p) {
  static const Depth depths[] = {Depth::U8, Depth::S16, Depth::F32};
  Mat a = genMat(c, kSrcA, PixelType(depths[c.variant % 3], channelsFor(c)));
  Rng r(c.seed ^ 0x5ca1eaddull);
  Mat dst;
  const double alpha = coef(c, r, -4.0, 4.0);
  core::scaleAdd(a, alpha, coef(c, r, -300.0, 300.0), dst, p);
  return dst;
}

// Variants with bits 16 and 32 both set blend u8/s16 with the exact-integer
// weights (1, +-1, 0), which the hand paths run as saturating add/sub, or
// with a near miss that must stay on their f64 lanes.
Mat runAddWeighted(const CaseSpec& c, KernelPath p) {
  struct Weights {
    double alpha, beta, gamma;
  };
  static const std::vector<Weights> unitBlends = {
      {1.0, 1.0, 0.0}, {1.0, -1.0, 0.0}, {1.0, -1.0, -0.0},
      {1.0, -1.0, 0.5}, {-1.0, 1.0, 0.0}, {1.0, -1.0 + 0x1p-52, 0.0}};
  static const Depth depths[] = {Depth::U8, Depth::S16, Depth::F32};
  const bool unitBlend = (c.variant & 48) == 48;
  const PixelType type(depths[c.variant % (unitBlend ? 2 : 3)], channelsFor(c));
  Mat a = genMat(c, kSrcA, type);
  Mat b = genMat(c, kSrcB, type);
  Rng r(c.seed ^ 0xaddbeefedull);
  Mat dst;
  if (unitBlend) {
    const Weights& w = r.pick(unitBlends);
    core::addWeighted(a, w.alpha, b, w.beta, w.gamma, dst, p);
    return dst;
  }
  const double alpha = coef(c, r, -2.0, 2.0);
  const double beta = coef(c, r, -2.0, 2.0);
  core::addWeighted(a, alpha, b, beta, coef(c, r, -100.0, 100.0), dst, p);
  return dst;
}

Mat runBitwiseNot(const CaseSpec& c, KernelPath p) {
  static const Depth depths[] = {Depth::U8, Depth::S16};
  Mat a = genMat(c, kSrcA, PixelType(depths[c.variant % 2], channelsFor(c)));
  Mat dst;
  core::bitwiseNot(a, dst, p);
  return dst;
}

// ---- separable filters -----------------------------------------------------

imgproc::BorderType borderFor(Rng& r) {
  static const std::vector<imgproc::BorderType> borders = {
      imgproc::BorderType::Reflect101, imgproc::BorderType::Replicate,
      imgproc::BorderType::Reflect, imgproc::BorderType::Constant,
      imgproc::BorderType::Wrap};
  return r.pick(borders);
}

Mat runGaussian(const CaseSpec& c, KernelPath p) {
  // Special-domain floats (Inf/NaN) are excluded: Inf - Inf inside the
  // convolution is NaN on every path but where it lands depends on tap
  // order, which is exactly what the tolerance policy does not cover.
  const Domain dom = c.domain == Domain::Special ? Domain::Uniform : c.domain;
  CaseSpec cc = c;
  cc.domain = dom;
  const Depth sd = (c.variant & 1) ? Depth::F32 : Depth::U8;
  Mat src = genMat(cc, kSrcA, PixelType(sd, 1));
  Rng r(c.seed ^ 0x6a0551a2ull);
  const int kw = 3 + 2 * r.uniform(0, 2);  // 3, 5, 7
  const int kh = 3 + 2 * r.uniform(0, 2);
  const double sigmaX = r.real(0.6, 2.5);
  const double sigmaY = r.chance(50) ? 0.0 : r.real(0.6, 2.5);
  Mat dst;
  imgproc::GaussianBlur(src, dst, {kw, kh}, sigmaX, sigmaY, borderFor(r), p);
  return dst;
}

Mat runSobel(const CaseSpec& c, KernelPath p) {
  const Domain dom = c.domain == Domain::Special ? Domain::Uniform : c.domain;
  CaseSpec cc = c;
  cc.domain = dom;
  const Depth sd = (c.variant & 1) ? Depth::F32 : Depth::U8;
  const Depth dd = (c.variant & 2) ? Depth::F32 : Depth::S16;
  Mat src = genMat(cc, kSrcA, PixelType(sd, 1));
  Rng r(c.seed ^ 0x50be1ull);
  static const std::vector<std::pair<int, int>> orders = {
      {1, 0}, {0, 1}, {1, 1}, {2, 0}, {0, 2}};
  const auto [dx, dy] = r.pick(orders);
  const int ksize = r.chance(70) ? 3 : 5;
  Mat dst;
  imgproc::Sobel(src, dst, dd, dx, dy, ksize, 1.0, borderFor(r), p);
  return dst;
}

Mat runEdgeDetect(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xed6ede7ull);
  Mat dst;
  imgproc::edgeDetect(src, dst, r.real(0.0, 400.0), 3, borderFor(r), p);
  return dst;
}

// ---- pipeline graphs -------------------------------------------------------
// Differential contract of simdcv::graph: the fused streaming schedule is
// bit-exact with the staged whole-image schedule. The oracle's reference leg
// is always (ScalarNoVec, 1 thread), so routing ScalarNoVec to runStaged
// compares every fused path on every thread count against the staged scalar
// reference. For U8 sources at ksize 3/5 both schedules run the Sobel pair as
// exact FxSobel nodes (Graph::sepConv's integer lowering), so graph.edge
// compares integer against integer; graph.edge-float holds that lowering to
// the float chain, byte for byte.

graph::Graph genEdgeGraph(const CaseSpec& c) {
  Rng r(c.seed ^ 0x9ed6ef05edull);
  const double thresh = r.real(-10.0, 300.0);  // overshoot: degenerate fills
  const int ksize = r.chance(70) ? 3 : 5;
  return graph::makeEdgeGraph(Depth::U8, thresh, ksize, borderFor(r));
}

Mat runGraphEdge(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  const graph::Graph g = genEdgeGraph(c);
  Mat dst;
  if (p == KernelPath::ScalarNoVec)
    g.runStaged(src, dst, p);
  else
    g.runFused(src, dst, p);
  return dst;
}

// The exactness contract of the FxSobel lowering: the ScalarNoVec leg is the
// float chain edgeDetectUnfused (Sobel -> gradientMagnitude -> threshold);
// every other leg runs the edge graph's run() on its path. ksize 3/5 lower
// to FxSobel; ksize 7 exceeds the i16 bound and covers the float SepConv.
Mat runGraphEdgeFloat(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xed6ef10a7ull);
  const double thresh = r.real(-10.0, 300.0);
  const int ksize = 3 + 2 * r.uniform(0, 2);  // 3, 5, 7
  const imgproc::BorderType border = borderFor(r);
  Mat dst;
  if (p == KernelPath::ScalarNoVec)
    imgproc::edgeDetectUnfused(src, dst, thresh, ksize, border, p);
  else
    graph::makeEdgeGraph(Depth::U8, thresh, ksize, border).run(src, dst, p);
  return dst;
}

Mat runGraphBlurSobelThreshold(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xb51e5065ull);
  const int blurKsize = 3 + 2 * r.uniform(0, 2);  // 3, 5, 7
  const double sigma = r.real(0.6, 2.5);
  const int sobelKsize = r.chance(70) ? 3 : 5;
  const double thresh = r.real(-40000.0, 40000.0);  // S16 threshold stage
  // No Wrap here: a Wrap-border convolution on an interior stage needs random
  // row access, so the graph would (correctly) refuse to fuse. Wrap coverage
  // rides on graph.edge, whose convolutions read the source directly.
  static const std::vector<imgproc::BorderType> streamable = {
      imgproc::BorderType::Reflect101, imgproc::BorderType::Replicate,
      imgproc::BorderType::Reflect, imgproc::BorderType::Constant};
  const graph::Graph g = graph::makeBlurSobelThresholdGraph(
      Depth::U8, blurKsize, sigma, sobelKsize, thresh, r.pick(streamable));
  Mat dst;
  if (p == KernelPath::ScalarNoVec)
    g.runStaged(src, dst, p);
  else
    g.runFused(src, dst, p);
  return dst;
}

// The photo chain covers the remaining fused vocabulary: pointwise scaling,
// addWeighted (a node consumed by BOTH a convolution and the blend — the
// multi-consumer skewed-window case), and the F32 interior depth.
Mat runGraphPhoto(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0x0070b00full);
  const int toneKsize = 3 + 2 * r.uniform(0, 1);     // 3, 5
  const int unsharpKsize = 5 + 2 * r.uniform(0, 1);  // 5, 7
  const graph::Graph g = graph::makePhotoGraph(
      toneKsize, r.real(0.6, 1.5), unsharpKsize, r.real(0.8, 2.0),
      r.real(0.8, 1.3), r.real(-20.0, 20.0), r.real(0.2, 2.0));
  Mat dst;
  if (p == KernelPath::ScalarNoVec)
    g.runStaged(src, dst, p);
  else
    g.runFused(src, dst, p);
  return dst;
}

// Band partitions must be invisible: forced fixed-height serial bands
// (including 1-row bands, bands straddling the kernel height, and one band
// of rows-1) against the staged reference.
Mat runGraphBanded(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  const graph::Graph g = genEdgeGraph(c);
  Mat dst;
  if (p == KernelPath::ScalarNoVec) {
    g.runStaged(src, dst, p);
  } else {
    Rng r(c.seed ^ 0xba4ded0ull);
    static const std::vector<int> bands = {1, 2, 3, 4, 5, 16};
    int bandRows = r.chance(50) ? r.pick(bands) : c.rows - 1;
    bandRows = std::max(1, std::min(bandRows, c.rows));
    graph::detail::runFusedBanded(g, src, dst, p, bandRows);
  }
  return dst;
}

// run()'s scheduling must be invisible too: run() vs the staged scalar
// reference. Even variants run the edge graph, which run() fuses; odd ones
// binarize through an opaque stage into a morphology stage (the serve
// scanner's shape), which cannot fuse, so run() takes its pooled staged
// schedule. The Auto leg goes through Default, so the default-path
// resolution is covered.
Mat runGraphRun(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  graph::Graph g;
  if (c.variant % 2 == 0) {
    g = genEdgeGraph(c);
  } else {
    Rng r(c.seed ^ 0x9007edull);
    const double t = r.real(-10.0, 300.0);
    const graph::NodeId bin = g.opaque(
        g.source(Depth::U8), "binarize", Depth::U8,
        [t](const Mat& a, Mat& d, KernelPath q) {
          imgproc::threshold(a, d, t, 255.0, imgproc::ThresholdType::BinaryInv,
                             q);
        });
    g.sink(g.morph(bin, r.chance(50), 1 + 2 * r.uniform(0, 4),
                   1 + 2 * r.uniform(0, 2)));
  }
  Mat dst;
  if (p == KernelPath::ScalarNoVec)
    g.runStaged(src, dst, p);
  else
    g.run(src, dst, p == KernelPath::Auto ? KernelPath::Default : p);
  return dst;
}

// The windowed integer stages inside the fused executor: fixed-point
// Gaussian/Sobel and morphology nodes streamed through per-node u8/i16
// window rings. Alternates between the fx edge chain and the morphological
// gradient; also exercises forced band partitions, since the integer rings
// re-prime seams exactly like the float convolution rings.
Mat runGraphMorphFx(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0x304f60f8ull);
  static const std::vector<imgproc::BorderType> streamable = {
      imgproc::BorderType::Reflect101, imgproc::BorderType::Replicate,
      imgproc::BorderType::Reflect, imgproc::BorderType::Constant};
  graph::Graph g =
      r.chance(50)
          ? graph::makeFxEdgeGraph(3 + 2 * r.uniform(0, 2), r.real(0.6, 2.5),
                                   r.chance(70) ? 3 : 5, r.real(-10.0, 300.0),
                                   r.pick(streamable))
          : graph::makeMorphGradientGraph(3 + 2 * r.uniform(0, 1),
                                          r.real(0.6, 1.5),
                                          1 + 2 * r.uniform(0, 3),
                                          1 + 2 * r.uniform(0, 2));
  Mat dst;
  if (p == KernelPath::ScalarNoVec) {
    g.runStaged(src, dst, p);
  } else if (r.chance(35)) {
    static const std::vector<int> bands = {1, 2, 3, 5, 16};
    int bandRows = r.chance(50) ? r.pick(bands) : c.rows - 1;
    bandRows = std::max(1, std::min(bandRows, c.rows));
    graph::detail::runFusedBanded(g, src, dst, p, bandRows);
  } else {
    g.runFused(src, dst, p);
  }
  return dst;
}

// ---- fixed-point kernels (B6) ----------------------------------------------
// Two kinds of entry per kernel. The plain entries check the cross-path
// contract: every KernelPath must be BIT-EXACT (the 16-bit accumulators are
// wrap-free by the analytic bound the engine asserts, so there is no rounding
// freedom for SIMD to exploit). The -vs-float entries route the oracle's
// ScalarNoVec reference leg to the float engine, so every fixed-point path is
// differentially compared against its float twin under the documented
// tolerance policy: MaxAbsLsb(1) for the requantized Gaussian (two rounding
// stages of <= 0.5 LSB each against the same quantized taps), Exact for Sobel
// (all intermediates are integers below 2^24, exact in f32).

Mat runFxGaussian(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xf16a0551ull);
  const int kw = 3 + 2 * r.uniform(0, 2);  // 3, 5, 7
  const int kh = 3 + 2 * r.uniform(0, 2);
  const double sigmaX = r.real(0.6, 2.5);
  const double sigmaY = r.chance(50) ? 0.0 : r.real(0.6, 2.5);
  const imgproc::BorderType border = borderFor(r);
  Mat dst;
  imgproc::GaussianBlurFx(src, dst, {kw, kh}, sigmaX, sigmaY, border, p);
  return dst;
}

Mat runFxGaussianVsFloat(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xf16a0551ull);  // same draws as fixedpt.gaussian
  const int kw = 3 + 2 * r.uniform(0, 2);
  const int kh = 3 + 2 * r.uniform(0, 2);
  const double sigmaX = r.real(0.6, 2.5);
  const double sigmaY0 = r.chance(50) ? 0.0 : r.real(0.6, 2.5);
  const double sigmaY = sigmaY0 <= 0 ? sigmaX : sigmaY0;
  const imgproc::BorderType border = borderFor(r);
  Mat dst;
  if (p == KernelPath::ScalarNoVec) {
    // Float twin run with the SAME quantized taps (K/256 is exactly
    // representable in f32), so the +-1 LSB policy covers exactly the two
    // integer rounding stages — not tap-quantization error.
    auto toFloat = [](const std::vector<std::uint16_t>& q) {
      std::vector<float> f(q.size());
      for (std::size_t i = 0; i < q.size(); ++i)
        f[i] = static_cast<float>(q[i]) / 256.0f;
      return f;
    };
    const auto kfx = toFloat(
        imgproc::quantizeKernelQ8(imgproc::getGaussianKernel(kw, sigmaX)));
    const auto kfy = toFloat(
        imgproc::quantizeKernelQ8(imgproc::getGaussianKernel(kh, sigmaY)));
    imgproc::sepFilter2D(src, dst, Depth::U8, kfx, kfy, border, 0.0, p);
  } else {
    imgproc::GaussianBlurFx(src, dst, {kw, kh}, sigmaX, sigmaY, border, p);
  }
  return dst;
}

Mat runFxSobel(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xf50be1ull);
  static const std::vector<std::pair<int, int>> orders = {
      {1, 0}, {0, 1}, {1, 1}, {2, 0}, {0, 2}};
  const auto [dx, dy] = r.pick(orders);
  const int ksize = r.chance(70) ? 3 : 5;
  const imgproc::BorderType border = borderFor(r);
  Mat dst;
  imgproc::SobelFx(src, dst, dx, dy, ksize, border, p);
  return dst;
}

// sepFilter2DFxS16 on 3-tap kernels drawn from every shape the x86 s16
// passes specialize ([-a,0,a], [a,b,a] per coefficient class), the
// near-misses that must take the general body, and the 5-tap Sobel pair;
// kx x ky stays inside the engine's wrap-free bound.
Mat runFxSobelShapes(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0x5ba9e5ull);
  using K = std::vector<std::int16_t>;
  static const std::vector<K> taps = {
      {-1, 0, 1}, {1, 0, -1}, {-2, 0, 2}, {-3, 0, 3}, {1, 2, 1},
      {1, 1, 1},  {1, -2, 1}, {1, 0, 1},  {2, 1, 2},  {2, 2, 2},
      {3, 10, 3}, {3, 2, 3},  {-1, 0, 2}, {1, 2, 2},  {0, 0, 0},
      {0, 1, 0},  {-1, -2, 0, 2, 1}, {1, 4, 6, 4, 1}};
  auto absSum = [](const K& k) {
    int s = 0;
    for (std::int16_t t : k) s += t < 0 ? -t : t;
    return std::max(s, 1);
  };
  const K& kx = r.pick(taps);
  const K* ky = &r.pick(taps);
  while (absSum(kx) * absSum(*ky) > 32767 / 255) ky = &r.pick(taps);
  Mat dst;
  imgproc::sepFilter2DFxS16(src, dst, kx, *ky, borderFor(r),
                            r.uniform(0, 255), p);
  return dst;
}

Mat runFxSobelVsFloat(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xf50be1ull);  // same draws as fixedpt.sobel
  static const std::vector<std::pair<int, int>> orders = {
      {1, 0}, {0, 1}, {1, 1}, {2, 0}, {0, 2}};
  const auto [dx, dy] = r.pick(orders);
  const int ksize = r.chance(70) ? 3 : 5;
  const imgproc::BorderType border = borderFor(r);
  Mat dst;
  if (p == KernelPath::ScalarNoVec)
    imgproc::Sobel(src, dst, Depth::S16, dx, dy, ksize, 1.0, border, p);
  else
    imgproc::SobelFx(src, dst, dx, dy, ksize, border, p);
  return dst;
}

// ---- morphology (B6) -------------------------------------------------------
// Cross-path bit-exactness for the separable rect structuring element.
// Apertures up to 9x7 so the sliding-window SIMD horizontal pass sees every
// overlap pattern; open/close covers the two-pass composition on a shared
// intermediate.

Size morphKsize(Rng& r) {
  return {1 + 2 * r.uniform(0, 4), 1 + 2 * r.uniform(0, 3)};  // 1..9 x 1..7
}

Mat runMorphErode(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xe40deull);
  const Size k = morphKsize(r);
  Mat dst;
  imgproc::erode(src, dst, k, p);
  return dst;
}

Mat runMorphDilate(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xd11a7eull);
  const Size k = morphKsize(r);
  Mat dst;
  imgproc::dilate(src, dst, k, p);
  return dst;
}

Mat runMorphOpenClose(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0x09e9c105eull);
  const Size k = morphKsize(r);
  const bool open = r.chance(50);
  Mat dst;
  if (open)
    imgproc::morphOpen(src, dst, k, p);
  else
    imgproc::morphClose(src, dst, k, p);
  return dst;
}

Mat runMagnitude(const CaseSpec& c, KernelPath p) {
  Mat gx = genMat(c, kSrcA, S16C1);
  Mat gy = genMat(c, kSrcB, S16C1);
  Mat dst;
  imgproc::gradientMagnitude(gx, gy, dst, p);
  return dst;
}

// ---- median, gray row, resize blend, SAD ------------------------------------
// One VecTraits body each at every x86 width. kDims misses most vector seams,
// so half the cases redraw the width from one below to three above one and
// two vectors of every backend (16/32/64 u8 lanes; the median's vectors
// cover cols - 2 interior columns).
int seamWidth(const CaseSpec& c, Rng& r) {
  static const std::vector<int> seams = {15,  16,  17,  18,  19, 31, 32,
                                         33,  34,  35,  63,  64, 65, 66,
                                         67,  127, 128, 129, 130};
  return r.chance(50) ? r.pick(seams) : c.cols;
}

Mat runMedian(const CaseSpec& c, KernelPath p, int ksize) {
  Rng r(c.seed ^ 0x3ed1a9ull);
  CaseSpec s = c;
  s.cols = seamWidth(c, r);
  Mat dst;
  imgproc::medianBlur(genMat(s, kSrcA, U8C1), dst, ksize, p);
  return dst;
}

Mat runGray(const CaseSpec& c, KernelPath p, imgproc::ColorCode code) {
  Rng r(c.seed ^ 0x96a7ull);
  CaseSpec s = c;
  s.cols = seamWidth(c, r);
  Mat dst;
  imgproc::cvtColor(genMat(s, kSrcA, U8C3), dst, code, p);
  return dst;
}

// Up- and downscales; the vertical blend runs over dst.cols * channels
// elements, so the seams apply to the destination width.
Mat runResize(const CaseSpec& c, KernelPath p, PixelType type) {
  Rng r(c.seed ^ 0x2e512eull);
  const int dw = r.chance(50) ? seamWidth(c, r) : r.uniform(1, 2 * c.cols + 3);
  const Size dsize{dw, r.uniform(1, 2 * c.rows + 2)};
  Mat dst;
  imgproc::resize(genMat(c, kSrcA, type), dst, dsize, imgproc::Interp::Linear,
                  p);
  return dst;
}

// findBestMatch's placement and SAD as one S32 row {x, y, sad}: a template
// 1..4 rows high, searched in an image up to 6 px larger each way.
Mat runMatch(const CaseSpec& c, KernelPath p) {
  Rng r(c.seed ^ 0x5ad5adull);
  CaseSpec t = c;
  t.cols = seamWidth(c, r);
  t.rows = r.uniform(1, 4);
  CaseSpec s = c;
  s.cols = t.cols + r.uniform(0, 6);
  s.rows = t.rows + r.uniform(0, 6);
  const imgproc::MatchResult m =
      imgproc::findBestMatch(genMat(s, kSrcA, U8C1), genMat(t, kSrcB, U8C1), p);
  Mat out(1, 3, S32C1);
  out.at<std::int32_t>(0, 0) = m.x;
  out.at<std::int32_t>(0, 1) = m.y;
  out.at<std::int32_t>(0, 2) = static_cast<std::int32_t>(m.sad);
  return out;
}

// ---- capability-factory pipeline -------------------------------------------
// One chained case through the "big five" families the caps registry gates
// (convertTo, threshold, array ops, sepFilter2D, gradientMagnitude), run
// end-to-end on the requested path. Every stage is bit-exact across
// backends, so the composition must be too; `check_all --only=caps` is the
// smoke leg verify.sh runs under ASan and under forced-scalar env masks.
Mat runCapsPipeline(const CaseSpec& c, KernelPath p) {
  Mat src = genMat(c, kSrcA, U8C1);
  Rng r(c.seed ^ 0xca95f1feull);
  const imgproc::BorderType border = borderFor(r);
  Mat blur;
  imgproc::GaussianBlur(src, blur, {3, 3}, r.real(0.6, 2.0), 0.0, border, p);
  Mat gx, gy;
  imgproc::Sobel(blur, gx, Depth::S16, 1, 0, 3, 1.0, border, p);
  imgproc::Sobel(blur, gy, Depth::S16, 0, 1, 3, 1.0, border, p);
  Mat mag;
  imgproc::gradientMagnitude(gx, gy, mag, p);
  Mat boosted;
  core::add(mag, blur, boosted, p);  // saturating u8 element-wise stage
  Mat thr;
  imgproc::threshold(boosted, thr, r.real(-10.0, 300.0), r.real(-10.0, 300.0),
                     imgproc::ThresholdType::Binary, p);
  Mat out;
  core::convertTo(thr, out, Depth::F32, 1.0, 0.0, p);
  return out;
}

}  // namespace

const std::vector<KernelCheck>& kernelRegistry() {
  static const std::vector<KernelCheck> registry = [] {
    std::vector<KernelCheck> reg;
    // convertTo: every HAND pair, both directions, a no-HAND pair so
    // autovec-vs-novec gets coverage too, and every pair of the scaled
    // (f64) hand arm: U8/S16/F32 to U8/S16/F32.
    addConvert(reg, "convertTo.32f16s", Depth::F32, Depth::S16, false);
    addConvert(reg, "convertTo.32f8u", Depth::F32, Depth::U8, false);
    addConvert(reg, "convertTo.8u32f", Depth::U8, Depth::F32, false);
    addConvert(reg, "convertTo.16s32f", Depth::S16, Depth::F32, false);
    addConvert(reg, "convertTo.8u16s", Depth::U8, Depth::S16, false);
    addConvert(reg, "convertTo.16s8u", Depth::S16, Depth::U8, false);
    addConvert(reg, "convertTo.32f32s", Depth::F32, Depth::S32, false);
    addConvert(reg, "convertTo.64f16u", Depth::F64, Depth::U16, false);
    addConvert(reg, "convertTo.scaled.8u8u", Depth::U8, Depth::U8, true);
    addConvert(reg, "convertTo.scaled.8u16s", Depth::U8, Depth::S16, true);
    addConvert(reg, "convertTo.scaled.8u32f", Depth::U8, Depth::F32, true);
    addConvert(reg, "convertTo.scaled.16s8u", Depth::S16, Depth::U8, true);
    addConvert(reg, "convertTo.scaled.16s16s", Depth::S16, Depth::S16, true);
    addConvert(reg, "convertTo.scaled.16s32f", Depth::S16, Depth::F32, true);
    addConvert(reg, "convertTo.scaled.32f8u", Depth::F32, Depth::U8, true);
    addConvert(reg, "convertTo.scaled.32f16s", Depth::F32, Depth::S16, true);
    addConvert(reg, "convertTo.scaled.32f32f", Depth::F32, Depth::F32, true);
    // threshold: all five types; depth (u8/s16/f32) rides on the variant.
    addThreshold(reg, "threshold.binary", imgproc::ThresholdType::Binary);
    addThreshold(reg, "threshold.binary-inv", imgproc::ThresholdType::BinaryInv);
    addThreshold(reg, "threshold.trunc", imgproc::ThresholdType::Trunc);
    addThreshold(reg, "threshold.tozero", imgproc::ThresholdType::ToZero);
    addThreshold(reg, "threshold.tozero-inv", imgproc::ThresholdType::ToZeroInv);
    // element-wise array ops.
    addBinOp(reg, "arrayops.add", &core::add, false);
    addBinOp(reg, "arrayops.subtract", &core::subtract, false);
    addBinOp(reg, "arrayops.absdiff", &core::absdiff, false);
    addBinOp(reg, "arrayops.min", &core::min, false);
    addBinOp(reg, "arrayops.max", &core::max, false);
    addBinOp(reg, "arrayops.bitwise-and", &core::bitwiseAnd, true);
    addBinOp(reg, "arrayops.bitwise-xor", &core::bitwiseXor, true);
    reg.push_back({"arrayops.bitwise-not", &runBitwiseNot, Tolerance::Exact()});
    reg.push_back({"arrayops.scale-add", &runScaleAdd, Tolerance::Exact()});
    reg.push_back({"arrayops.add-weighted", &runAddWeighted, Tolerance::Exact()});
    // separable-filter pipelines (the paper's benchmarks 3-5).
    reg.push_back({"filter.gaussian", &runGaussian, Tolerance::Exact()});
    reg.push_back({"filter.sobel", &runSobel, Tolerance::Exact()});
    // fixed-point tier (B6): cross-path bit-exact, plus the differential
    // fixed-vs-float pairs under the documented tolerance policy.
    reg.push_back({"fixedpt.gaussian", &runFxGaussian, Tolerance::Exact()});
    reg.push_back({"fixedpt.gaussian-vs-float", &runFxGaussianVsFloat,
                   Tolerance::MaxAbsLsb(1)});
    reg.push_back({"fixedpt.sobel", &runFxSobel, Tolerance::Exact()});
    reg.push_back(
        {"fixedpt.sobel-shapes", &runFxSobelShapes, Tolerance::Exact()});
    reg.push_back(
        {"fixedpt.sobel-vs-float", &runFxSobelVsFloat, Tolerance::Exact()});
    // morphology family (B6): separable rect min/max across paths.
    reg.push_back({"morph.erode", &runMorphErode, Tolerance::Exact()});
    reg.push_back({"morph.dilate", &runMorphDilate, Tolerance::Exact()});
    reg.push_back({"morph.open-close", &runMorphOpenClose, Tolerance::Exact()});
    reg.push_back({"edge.magnitude", &runMagnitude, Tolerance::Exact()});
    for (int k : {3, 5})
      reg.push_back({"median." + std::to_string(k),
                     [k](const CaseSpec& c, KernelPath p) {
                       return runMedian(c, p, k);
                     }});
    using imgproc::ColorCode;
    for (auto [name, code] : {std::pair{"color.bgr2gray", ColorCode::BGR2GRAY},
                              std::pair{"color.rgb2gray", ColorCode::RGB2GRAY}})
      reg.push_back({name, [code](const CaseSpec& c, KernelPath p) {
                       return runGray(c, p, code);
                     }});
    for (auto [name, type] : {std::pair{"resize.linear-u8c1", U8C1},
                              std::pair{"resize.linear-u8c3", U8C3},
                              std::pair{"resize.linear-f32c1", F32C1}})
      reg.push_back({name, [type](const CaseSpec& c, KernelPath p) {
                       return runResize(c, p, type);
                     }});
    reg.push_back({"match.sad", &runMatch});
    // caps: the big-five families chained end-to-end on one path (the
    // backend-registry smoke case; see simd/caps.hpp).
    reg.push_back({"caps.pipeline", &runCapsPipeline, Tolerance::Exact()});
    reg.push_back({"edge.detect", &runEdgeDetect, Tolerance::Exact()});
    // pipeline graphs: fused streaming schedule vs the staged scalar oracle.
    reg.push_back({"graph.edge", &runGraphEdge, Tolerance::Exact()});
    reg.push_back({"graph.edge-float", &runGraphEdgeFloat, Tolerance::Exact()});
    reg.push_back({"graph.blur-sobel-thr", &runGraphBlurSobelThreshold, Tolerance::Exact()});
    reg.push_back({"graph.photo", &runGraphPhoto, Tolerance::Exact()});
    reg.push_back({"graph.banded", &runGraphBanded, Tolerance::Exact()});
    reg.push_back({"graph.run", &runGraphRun, Tolerance::Exact()});
    reg.push_back({"graph.morph-fx", &runGraphMorphFx, Tolerance::Exact()});
    return reg;
  }();
  return registry;
}

}  // namespace simdcv::check
