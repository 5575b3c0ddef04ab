// Seeded random fusible DAGs: about 200 graphs over the fusible node kinds,
// each run fused (automatic and forced band partitions) and staged on every
// path at a small geometry, byte for byte. The generator covers legal depth
// transitions, multi-consumer nodes, SepConv groups, sibling windowed nodes
// that share padded rows, sepConv declarations on both sides of the exact
// integer lowering, and Constant / Reflect101 / Replicate / Reflect borders.
// A failure names its seed; regenerate that one graph with dagForSeed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "imgproc/fixedpoint.hpp"
#include "imgproc/kernels.hpp"
#include "simd/caps.hpp"

#include "graph_test_support.hpp"

namespace simdcv::graph {
namespace {

using imgproc::BorderType;

class DagGen {
 public:
  explicit DagGen(std::uint32_t seed) : rng_(seed) {
    srcDepth_ = chance(70) ? Depth::U8 : Depth::F32;
    add(g_.source(srcDepth_), srcDepth_);
  }

  Graph build() {
    const int actions = 2 + pick(6);
    for (int i = 0; i < actions; ++i) step();
    // Merge every unconsumed node into one sink: blend pairs at a common
    // depth, so each declared node reaches the sink.
    for (;;) {
      std::vector<NodeId> open;
      for (NodeId id = 1; id < static_cast<NodeId>(depth_.size()); ++id)
        if (uses_[static_cast<std::size_t>(id)] == 0) open.push_back(id);
      if (open.size() <= 1) {
        g_.sink(open.empty() ? add(g_.convert(0, Depth::F32), Depth::F32)
                             : open[0]);
        return std::move(g_);
      }
      NodeId a = open[0], b = open[1];
      if (depthOf(a) != depthOf(b)) {
        a = use(a, g_.convert(a, Depth::F32), Depth::F32);
        b = use(b, g_.convert(b, Depth::F32), Depth::F32);
      }
      use2(a, b, g_.addWeighted(a, 0.75, b, 0.5, 2.0), depthOf(a));
    }
  }

  Depth srcDepth() const { return srcDepth_; }

 private:
  std::mt19937 rng_;
  Graph g_;
  Depth srcDepth_;
  std::vector<Depth> depth_;
  std::vector<int> uses_;

  int pick(int n) { return static_cast<int>(rng_() % static_cast<unsigned>(n)); }
  bool chance(int pct) { return pick(100) < pct; }
  template <typename T>
  T pickOf(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(pick(static_cast<int>(v.size())))];
  }

  Depth depthOf(NodeId id) const { return depth_[static_cast<std::size_t>(id)]; }
  NodeId add(NodeId id, Depth d) {
    depth_.push_back(d);
    uses_.push_back(0);
    return id;
  }
  NodeId use(NodeId in, NodeId id, Depth d) {
    ++uses_[static_cast<std::size_t>(in)];
    return add(id, d);
  }
  NodeId use2(NodeId a, NodeId b, NodeId id, Depth d) {
    ++uses_[static_cast<std::size_t>(a)];
    ++uses_[static_cast<std::size_t>(b)];
    return add(id, d);
  }

  // An input of one of `ok` depths, preferring nodes nothing reads yet; -1
  // when none exists.
  NodeId input(std::vector<Depth> ok) {
    std::vector<NodeId> fresh, any;
    for (NodeId id = 0; id < static_cast<NodeId>(depth_.size()); ++id) {
      bool match = false;
      for (Depth d : ok) match = match || d == depthOf(id);
      if (!match) continue;
      any.push_back(id);
      if (uses_[static_cast<std::size_t>(id)] == 0) fresh.push_back(id);
    }
    if (any.empty()) return -1;
    return pickOf(!fresh.empty() && chance(70) ? fresh : any);
  }

  // Streamable borders; Wrap only where the input is the source.
  BorderType border(NodeId in) {
    std::vector<BorderType> b = {BorderType::Constant, BorderType::Reflect101,
                                 BorderType::Replicate, BorderType::Reflect};
    if (in == 0) b.push_back(BorderType::Wrap);
    return pickOf(b);
  }

  std::vector<float> floatTaps(int k, bool integer) {
    std::vector<float> t;
    for (int i = 0; i < k; ++i)
      t.push_back(integer ? static_cast<float>(pick(5) - 2)
                          : static_cast<float>(pick(9) - 3) * 0.125f);
    return t;
  }

  std::vector<std::int16_t> intTaps(int k) {
    std::vector<std::int16_t> t;
    for (int i = 0; i < k; ++i)
      t.push_back(static_cast<std::int16_t>(pick(3) - 1));
    return t;
  }

  // A sepConv declaration; U8 -> S16 with integer taps lowers to fxSobel
  // unless a Constant border value is fractional.
  NodeId sepConv(NodeId in, const std::vector<float>& kx,
                 const std::vector<float>& ky, Depth out, BorderType b,
                 double bv) {
    const NodeId id = g_.sepConv(in, kx, ky, out, b, bv);
    return use(in, id, out);
  }

  void step() {
    switch (pick(9)) {
      case 0: {  // sepConv, either side of the exact integer lowering
        const NodeId in = input({Depth::U8, Depth::F32});
        const bool integer = chance(50);
        const Depth out = pickOf(std::vector<Depth>{Depth::U8, Depth::S16,
                                                    Depth::S16, Depth::F32});
        const BorderType b = border(in);
        const double bv = chance(50) ? pick(256) : 3.5;
        sepConv(in, floatTaps(1 + 2 * pick(3), integer),
                floatTaps(1 + 2 * pick(3), integer), out, b, bv);
        break;
      }
      case 1: {  // a conv group: two convolutions, one window, one consumer
        const NodeId in = input({Depth::U8, Depth::F32});
        const int kw = 1 + 2 * pick(3), kh = 1 + 2 * pick(3);
        const bool integer = chance(50);
        const Depth out = chance(50) ? Depth::S16 : Depth::F32;
        const BorderType b = border(in);
        const double bv = pick(3) * 40.0;
        const NodeId a = sepConv(in, floatTaps(kw, integer),
                                 floatTaps(kh, integer), out, b, bv);
        const NodeId c = sepConv(in, floatTaps(kw, integer),
                                 floatTaps(kh, integer), out, b, bv);
        if (out == Depth::S16)
          use2(a, c, g_.magnitude(a, c), Depth::U8);
        else
          use2(a, c, g_.addWeighted(a, 0.5, c, -0.5, 1.0), out);
        break;
      }
      case 2: {  // sibling windows over one u8 input and one consumer
        const NodeId in = input({Depth::U8});
        if (in < 0) break;
        const int kw = 1 + 2 * pick(3), kh = 1 + 2 * pick(2);
        if (chance(50)) {
          const auto q = imgproc::quantizeKernelQ8(
              imgproc::getGaussianKernel(kw, 0.8 + 0.1 * pick(8)));
          const auto qy = imgproc::quantizeKernelQ8(
              imgproc::getGaussianKernel(kh, 1.0));
          const NodeId a = use(
              in, g_.fxGaussian(in, q, qy, BorderType::Replicate), Depth::U8);
          const NodeId c =
              use(in, g_.morph(in, chance(50), kw, kh), Depth::U8);
          use2(a, c, g_.addWeighted(a, 0.5, c, 0.5, 0.0), Depth::U8);
        } else {
          const BorderType b = border(in);
          const double bv = pick(256);
          const NodeId a = use(
              in, g_.fxSobel(in, intTaps(kw), intTaps(kh), b, bv), Depth::S16);
          const NodeId c = use(
              in, g_.fxSobel(in, intTaps(kw), intTaps(kh), b, bv), Depth::S16);
          use2(a, c, g_.magnitude(a, c), Depth::U8);
        }
        break;
      }
      case 3: {  // convert / pointwise, any depth to any depth
        const NodeId in = input({Depth::U8, Depth::S16, Depth::F32});
        const Depth out =
            pickOf(std::vector<Depth>{Depth::U8, Depth::S16, Depth::F32});
        if (chance(40))
          use(in, g_.convert(in, out), out);
        else
          use(in,
              g_.pointwise(in, out, pickOf(std::vector<double>{0.5, -1.5, 2.0}),
                           pickOf(std::vector<double>{0.0, 3.0, -7.5})),
              out);
        break;
      }
      case 4: {  // threshold, degenerate levels included
        const NodeId in = input({Depth::U8, Depth::S16, Depth::F32});
        use(in,
            g_.threshold(in, pickOf(std::vector<double>{-5.0, 40.5, 128.0,
                                                        255.0, 300.0}),
                         pickOf(std::vector<double>{255.0, 100.0}),
                         static_cast<imgproc::ThresholdType>(pick(5))),
            depthOf(in));
        break;
      }
      case 5: {  // morphology
        const NodeId in = input({Depth::U8});
        if (in < 0) break;
        use(in, g_.morph(in, chance(50), 1 + 2 * pick(3), 1 + 2 * pick(3)),
            Depth::U8);
        break;
      }
      case 6: {  // fixed-point Gaussian / Sobel
        const NodeId in = input({Depth::U8});
        if (in < 0) break;
        const BorderType b = border(in);
        if (chance(50)) {
          const auto q = imgproc::quantizeKernelQ8(
              imgproc::getGaussianKernel(1 + 2 * pick(3), 1.1));
          use(in, g_.fxGaussian(in, q, q, b, pick(256)), Depth::U8);
        } else {
          use(in, g_.fxSobel(in, intTaps(1 + 2 * pick(3)), intTaps(3), b, 9.0),
              Depth::S16);
        }
        break;
      }
      case 7: {  // gradient magnitude of two s16 nodes
        const NodeId a = input({Depth::S16}), b = input({Depth::S16});
        if (a < 0) break;
        use2(a, b, g_.magnitude(a, b), Depth::U8);
        break;
      }
      default: {  // blend of two nodes of one depth
        const NodeId a = input({Depth::U8, Depth::S16, Depth::F32});
        const NodeId b = input({depthOf(a)});
        use2(a, b, g_.addWeighted(a, 0.6, b, 0.7, -3.0), depthOf(a));
        break;
      }
    }
  }
};

/// Same shape, type and bytes (NaN payloads included).
bool sameBytes(const Mat& a, const Mat& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.type() != b.type())
    return false;
  const std::size_t n = static_cast<std::size_t>(a.cols()) * a.elemSize();
  for (int r = 0; r < a.rows(); ++r)
    if (std::memcmp(a.ptr<std::uint8_t>(r), b.ptr<std::uint8_t>(r), n) != 0)
      return false;
  return true;
}

struct Dag {
  Graph g;
  Depth srcDepth;
};

Dag dagForSeed(std::uint32_t seed) {
  DagGen gen(seed);
  Graph g = gen.build();
  return {std::move(g), gen.srcDepth()};
}

TEST(GraphRandom, FusedMatchesStagedOnSeededDags) {
  int lowered = 0, floatS16 = 0, multiConsumer = 0, constant = 0,
      reflect101 = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const std::uint32_t seed = 0x9a7f0000u + i;
    const Dag dag = dagForSeed(seed);
    const Graph& g = dag.g;
    std::ostringstream where;
    where << "seed 0x" << std::hex << seed << std::dec << " " << g.signature();
    SCOPED_TRACE(where.str());
    ASSERT_TRUE(g.fusible());
    for (NodeId id = 1; id < g.numNodes(); ++id) {
      const detail::Node& n = g.node(id);
      lowered += n.kind == NodeKind::FxSobel;
      floatS16 += n.kind == NodeKind::SepConv && n.depth == Depth::S16 &&
                  g.node(n.in0).depth == Depth::U8;
      const bool windowed = n.kind == NodeKind::SepConv ||
                            n.kind == NodeKind::FxGaussian ||
                            n.kind == NodeKind::FxSobel;
      constant += windowed && n.border == BorderType::Constant;
      reflect101 += windowed && n.border == BorderType::Reflect101;
    }
    for (NodeId id = 0; id < g.numNodes(); ++id)
      multiConsumer += g.node(id).consumers > 1;

    std::mt19937 geo(seed);
    const int rows = 1 + static_cast<int>(geo() % 12);
    const int cols = 1 + static_cast<int>(geo() % 20);
    const Mat src = testing::randomMat(rows, cols, dag.srcDepth, seed);
    for (KernelPath p : caps::availablePaths()) {
      Mat staged, fused;
      g.runStaged(src, staged, p);
      g.runFused(src, fused, p);
      EXPECT_TRUE(sameBytes(staged, fused))
          << rows << "x" << cols << " " << toString(p) << " runFused";
      for (int bandRows : {1, 2, 3, rows - 1, rows}) {
        if (bandRows < 1 || bandRows > rows) continue;
        Mat banded;
        detail::runFusedBanded(g, src, banded, p, bandRows);
        EXPECT_TRUE(sameBytes(staged, banded))
            << rows << "x" << cols << " " << toString(p)
            << " bandRows=" << bandRows;
      }
    }
  }
  // The generator reached every shape it is meant to cover.
  EXPECT_GT(lowered, 0);
  EXPECT_GT(floatS16, 0);
  EXPECT_GT(multiConsumer, 0);
  EXPECT_GT(constant, 0);
  EXPECT_GT(reflect101, 0);
}

}  // namespace
}  // namespace simdcv::graph
