// Graph builder, validation, the staged (oracle) executor with run()'s pool
// of graph-owned intermediates, and the per-size fuse decision. The fused
// streaming executor lives in graph_fused.cpp.
#include "graph/graph.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <unordered_set>

#include "core/array_ops.hpp"
#include "core/convert.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/fixedpoint.hpp"
#include "imgproc/kernels.hpp"
#include "imgproc/morphology.hpp"
#include "prof/prof.hpp"

namespace simdcv::graph {

const char* toString(NodeKind k) noexcept {
  switch (k) {
    case NodeKind::Source: return "source";
    case NodeKind::SepConv: return "sepConv";
    case NodeKind::Convert: return "convert";
    case NodeKind::Pointwise: return "pointwise";
    case NodeKind::Threshold: return "threshold";
    case NodeKind::Magnitude: return "magnitude";
    case NodeKind::AddWeighted: return "addWeighted";
    case NodeKind::Morph: return "morph";
    case NodeKind::FxGaussian: return "fxGaussian";
    case NodeKind::FxSobel: return "fxSobel";
    case NodeKind::Opaque: return "opaque";
  }
  return "?";
}

namespace {

bool supportedDepth(Depth d) {
  return d == Depth::U8 || d == Depth::S16 || d == Depth::F32;
}

const char* depthCode(Depth d) {
  switch (d) {
    case Depth::U8: return "u8";
    case Depth::S16: return "s16";
    case Depth::F32: return "f32";
    default: return "x";
  }
}

// Vertical radius a node requires of its input rows (window height / 2 for
// the windowed kinds, 0 for element-wise stages).
int inputRadius(const detail::Node& n) {
  switch (n.kind) {
    case NodeKind::SepConv: return static_cast<int>(n.ky.size()) / 2;
    case NodeKind::Morph: return n.morphKh / 2;
    case NodeKind::FxGaussian: return static_cast<int>(n.fxky.size()) / 2;
    case NodeKind::FxSobel: return static_cast<int>(n.fxsy.size()) / 2;
    default: return 0;
  }
}

// The i16 accumulator bound of the 16-bit derivative engine: the row pass
// peaks at 255*sum|kx| and the column pass at 255*sum|kx|*sum|ky|.
bool fxS16BoundHolds(long long sax, long long say) {
  return 255 * sax <= 32767 && 255 * sax * std::max(say, 1LL) <= 32767;
}

// The fixed-point nodes take an integer Constant border value, as their
// imgproc engines do: the staged and fused schedules both pad with that int,
// so a fractional value would have no single meaning (NaN fails the test).
bool fxBorderValueOk(imgproc::BorderType border, double v) {
  return border != imgproc::BorderType::Constant ||
         (v >= -2147483648.0 && v <= 2147483647.0 && v == std::floor(v));
}

// Exact integer lowering of a sepConv (the rule Graph::sepConv documents).
// With u8 inputs and integer taps every float partial sum of the row and
// column passes is an integer of magnitude <= 255*sum|kx|*sum|ky| < 2^24, so
// the float engine computes it exactly in any order and saturate_cast<s16>
// returns it unchanged. Under the i16 bound fxSobel asserts, the 16-bit
// engine computes the same integer without wrap. Fills the empty ix/iy and
// returns true when the rule holds.
bool lowersToFxSobel(Depth inDepth, const std::vector<float>& kx,
                     const std::vector<float>& ky, Depth outDepth,
                     imgproc::BorderType border, double borderValue,
                     std::vector<std::int16_t>& ix,
                     std::vector<std::int16_t>& iy) {
  if (inDepth != Depth::U8 || outDepth != Depth::S16) return false;
  if (border == imgproc::BorderType::Constant &&
      !(borderValue >= 0.0 && borderValue <= 255.0 &&
        borderValue == std::floor(borderValue)))
    return false;
  // Integer taps in i16 range (NaN and +-Inf fail the range test), plus the
  // sum of their magnitudes.
  auto toInt = [](const std::vector<float>& k, std::vector<std::int16_t>& out,
                  long long& sumAbs) {
    for (float t : k) {
      if (!(t >= -32768.0f && t <= 32767.0f) || t != std::floor(t))
        return false;
      out.push_back(static_cast<std::int16_t>(t));
      sumAbs += std::abs(static_cast<long long>(t));
    }
    return true;
  };
  long long sax = 0, say = 0;
  return toInt(kx, ix, sax) && toInt(ky, iy, say) && fxS16BoundHolds(sax, say);
}

// prof::addSample keeps the name pointer, so stage labels must outlive every
// Graph instance: intern them in a process-lifetime pool.
const char* internLabel(const std::string& s) {
  static std::mutex mu;
  static auto* pool = new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lk(mu);
  return pool->insert(s).first->c_str();
}

}  // namespace

// ---- building ---------------------------------------------------------------

void Graph::requireBuilding(const char* what) const {
  SIMDCV_REQUIRE(sink_ < 0, "graph: cannot add nodes after sink()");
  if (what[0] != 's' || what[1] != 'o')  // every builder but source()
    SIMDCV_REQUIRE(!nodes_.empty(), "graph: declare source() first");
}

const detail::Node& Graph::inputNode(NodeId id, const char* what) const {
  SIMDCV_REQUIRE(id >= 0 && id < numNodes(), "graph: input id out of range");
  (void)what;
  return nodes_[static_cast<std::size_t>(id)];
}

NodeId Graph::addNode(detail::Node n) {
  nodes_.push_back(std::move(n));
  return numNodes() - 1;
}

NodeId Graph::source(Depth depth) {
  SIMDCV_REQUIRE(nodes_.empty() && sink_ < 0, "graph: source() must be first");
  SIMDCV_REQUIRE(supportedDepth(depth), "graph: source depth must be u8/s16/f32");
  detail::Node n;
  n.kind = NodeKind::Source;
  n.depth = depth;
  return addNode(std::move(n));
}

NodeId Graph::sepConv(NodeId input, std::vector<float> kx,
                      std::vector<float> ky, Depth outDepth,
                      imgproc::BorderType border, double borderValue) {
  requireBuilding("sepConv");
  const detail::Node& in = inputNode(input, "sepConv");
  SIMDCV_REQUIRE(in.depth == Depth::U8 || in.depth == Depth::F32,
                 "graph: sepConv input depth must be u8 or f32");
  SIMDCV_REQUIRE(supportedDepth(outDepth), "graph: sepConv depth must be u8/s16/f32");
  SIMDCV_REQUIRE(!kx.empty() && !ky.empty() && (kx.size() & 1) && (ky.size() & 1),
                 "graph: sepConv kernels must have odd length");
  std::vector<std::int16_t> ix, iy;
  if (lowersToFxSobel(in.depth, kx, ky, outDepth, border, borderValue, ix, iy))
    return fxSobel(input, std::move(ix), std::move(iy), border, borderValue);
  detail::Node n;
  n.kind = NodeKind::SepConv;
  n.in0 = input;
  n.depth = outDepth;
  n.kx = std::move(kx);
  n.ky = std::move(ky);
  n.border = border;
  n.borderValue = borderValue;
  return addNode(std::move(n));
}

NodeId Graph::convert(NodeId input, Depth outDepth) {
  return pointwise(input, outDepth, 1.0, 0.0);
}

NodeId Graph::pointwise(NodeId input, Depth outDepth, double alpha,
                        double beta) {
  requireBuilding("pointwise");
  inputNode(input, "pointwise");
  SIMDCV_REQUIRE(supportedDepth(outDepth),
                 "graph: pointwise depth must be u8/s16/f32");
  detail::Node n;
  n.kind = (alpha == 1.0 && beta == 0.0) ? NodeKind::Convert
                                         : NodeKind::Pointwise;
  n.in0 = input;
  n.depth = outDepth;
  n.alpha = alpha;
  n.beta = beta;
  return addNode(std::move(n));
}

NodeId Graph::threshold(NodeId input, double thresh, double maxval,
                        imgproc::ThresholdType type) {
  requireBuilding("threshold");
  const detail::Node& in = inputNode(input, "threshold");
  detail::Node n;
  n.kind = NodeKind::Threshold;
  n.in0 = input;
  n.depth = in.depth;
  n.thresh = thresh;
  n.maxval = maxval;
  n.ttype = type;
  return addNode(std::move(n));
}

NodeId Graph::magnitude(NodeId gx, NodeId gy) {
  requireBuilding("magnitude");
  const detail::Node& a = inputNode(gx, "magnitude");
  const detail::Node& b = inputNode(gy, "magnitude");
  SIMDCV_REQUIRE(a.depth == Depth::S16 && b.depth == Depth::S16,
                 "graph: magnitude inputs must be s16");
  detail::Node n;
  n.kind = NodeKind::Magnitude;
  n.in0 = gx;
  n.in1 = gy;
  n.depth = Depth::U8;
  return addNode(std::move(n));
}

NodeId Graph::addWeighted(NodeId a, double alpha, NodeId b, double beta,
                          double gamma) {
  requireBuilding("addWeighted");
  const detail::Node& na = inputNode(a, "addWeighted");
  const detail::Node& nb = inputNode(b, "addWeighted");
  SIMDCV_REQUIRE(na.depth == nb.depth,
                 "graph: addWeighted input depths must match");
  detail::Node n;
  n.kind = NodeKind::AddWeighted;
  n.in0 = a;
  n.in1 = b;
  n.depth = na.depth;
  n.alpha = alpha;
  n.beta = beta;
  n.gamma = gamma;
  return addNode(std::move(n));
}

NodeId Graph::morph(NodeId input, bool dilate, int kw, int kh) {
  requireBuilding("morph");
  const detail::Node& in = inputNode(input, "morph");
  SIMDCV_REQUIRE(in.depth == Depth::U8, "graph: morph input depth must be u8");
  SIMDCV_REQUIRE(kw >= 1 && (kw & 1) && kh >= 1 && (kh & 1),
                 "graph: morph ksize must be odd and positive");
  detail::Node n;
  n.kind = NodeKind::Morph;
  n.in0 = input;
  n.depth = Depth::U8;
  n.morphKw = kw;
  n.morphKh = kh;
  n.morphMax = dilate;
  n.border = imgproc::BorderType::Replicate;  // erode()/dilate() contract
  return addNode(std::move(n));
}

NodeId Graph::fxGaussian(NodeId input, std::vector<std::uint16_t> kx,
                         std::vector<std::uint16_t> ky,
                         imgproc::BorderType border, double borderValue) {
  requireBuilding("fxGaussian");
  const detail::Node& in = inputNode(input, "fxGaussian");
  SIMDCV_REQUIRE(in.depth == Depth::U8,
                 "graph: fxGaussian input depth must be u8");
  SIMDCV_REQUIRE(!kx.empty() && !ky.empty() && (kx.size() & 1) &&
                     (ky.size() & 1),
                 "graph: fxGaussian kernels must have odd length");
  for (const auto* k : {&kx, &ky}) {
    unsigned sum = 0;
    for (std::uint16_t t : *k) sum += t;
    SIMDCV_REQUIRE(sum == 256,
                   "graph: fxGaussian taps must sum to exactly 256 (Q8)");
  }
  SIMDCV_REQUIRE(fxBorderValueOk(border, borderValue),
                 "graph: fxGaussian Constant border value must be an integer");
  detail::Node n;
  n.kind = NodeKind::FxGaussian;
  n.in0 = input;
  n.depth = Depth::U8;
  n.fxkx = std::move(kx);
  n.fxky = std::move(ky);
  n.border = border;
  n.borderValue = borderValue;
  return addNode(std::move(n));
}

NodeId Graph::fxSobel(NodeId input, std::vector<std::int16_t> kx,
                      std::vector<std::int16_t> ky,
                      imgproc::BorderType border, double borderValue) {
  requireBuilding("fxSobel");
  const detail::Node& in = inputNode(input, "fxSobel");
  SIMDCV_REQUIRE(in.depth == Depth::U8, "graph: fxSobel input depth must be u8");
  SIMDCV_REQUIRE(!kx.empty() && !ky.empty() && (kx.size() & 1) &&
                     (ky.size() & 1),
                 "graph: fxSobel kernels must have odd length");
  long long sax = 0, say = 0;
  for (std::int16_t t : kx) sax += t < 0 ? -static_cast<long long>(t) : t;
  for (std::int16_t t : ky) say += t < 0 ? -static_cast<long long>(t) : t;
  SIMDCV_REQUIRE(fxS16BoundHolds(sax, say),
                 "graph: fxSobel taps exceed the i16 accumulator bound");
  SIMDCV_REQUIRE(fxBorderValueOk(border, borderValue),
                 "graph: fxSobel Constant border value must be an integer");
  detail::Node n;
  n.kind = NodeKind::FxSobel;
  n.in0 = input;
  n.depth = Depth::S16;
  n.fxsx = std::move(kx);
  n.fxsy = std::move(ky);
  n.border = border;
  n.borderValue = borderValue;
  return addNode(std::move(n));
}

NodeId Graph::opaque(NodeId input, const std::string& name, Depth outDepth,
                     StageFn fn) {
  requireBuilding("opaque");
  inputNode(input, "opaque");
  SIMDCV_REQUIRE(supportedDepth(outDepth), "graph: opaque depth must be u8/s16/f32");
  SIMDCV_REQUIRE(static_cast<bool>(fn), "graph: opaque stage needs a function");
  detail::Node n;
  n.kind = NodeKind::Opaque;
  n.in0 = input;
  n.depth = outDepth;
  n.name = name;
  n.fn = std::move(fn);
  return addNode(std::move(n));
}

void Graph::sink(NodeId node) {
  SIMDCV_REQUIRE(sink_ < 0, "graph: sink() already set");
  SIMDCV_REQUIRE(node >= 0 && node < numNodes(), "graph: sink id out of range");
  sink_ = node;

  // Consumer counts; every non-sink node must lie on a path to the sink (with
  // a single sink and acyclic inputs, "every node is consumed" is equivalent).
  for (auto& n : nodes_) n.consumers = 0;
  for (const auto& n : nodes_) {
    if (n.in0 >= 0) ++nodes_[static_cast<std::size_t>(n.in0)].consumers;
    if (n.in1 >= 0) ++nodes_[static_cast<std::size_t>(n.in1)].consumers;
  }
  for (NodeId id = 0; id < numNodes(); ++id) {
    SIMDCV_REQUIRE(id == sink_ || nodes_[static_cast<std::size_t>(id)].consumers > 0,
                   "graph: every non-sink node must feed the sink");
  }
  SIMDCV_REQUIRE(nodes_[static_cast<std::size_t>(sink_)].consumers == 0,
                 "graph: the sink node cannot feed another node");

  // Live-window radii, sink -> source: R(sink) = 0 and each consumer c adds
  // its vertical radius, R(in) = max(R(in), R(c) + ry(c)). Inputs always have
  // smaller ids, so one reverse sweep suffices.
  for (auto& n : nodes_) n.radius = 0;
  for (NodeId id = numNodes() - 1; id >= 0; --id) {
    const detail::Node& c = nodes_[static_cast<std::size_t>(id)];
    const int need = c.radius + inputRadius(c);
    if (c.in0 >= 0) {
      auto& u = nodes_[static_cast<std::size_t>(c.in0)];
      u.radius = std::max(u.radius, need);
    }
    if (c.in1 >= 0) {
      auto& u = nodes_[static_cast<std::size_t>(c.in1)];
      u.radius = std::max(u.radius, need);
    }
  }
  sourceRadius_ = nodes_[0].radius;

  // Fusibility: the streaming schedule covers the fusible vocabulary, and a
  // Wrap border needs random row access — only the source Mat provides it.
  fusible_ = true;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::Opaque) fusible_ = false;
    const bool windowedKind = n.kind == NodeKind::SepConv ||
                              n.kind == NodeKind::FxGaussian ||
                              n.kind == NodeKind::FxSobel;
    if (windowedKind && n.border == imgproc::BorderType::Wrap && n.in0 != 0)
      fusible_ = false;
  }

  // Signature, prof labels and the band-grain cost model.
  signature_ = "g";
  maxKh_ = 1;
  rowOpCost_ = 1.0;
  for (NodeId id = 1; id < numNodes(); ++id) {
    detail::Node& n = nodes_[static_cast<std::size_t>(id)];
    std::string code;
    switch (n.kind) {
      case NodeKind::SepConv:
        code = "sep" + std::to_string(n.kx.size()) + "x" +
               std::to_string(n.ky.size()) + depthCode(n.depth);
        maxKh_ = std::max(maxKh_, static_cast<int>(n.ky.size()));
        rowOpCost_ += static_cast<double>(n.kx.size() + n.ky.size());
        break;
      case NodeKind::Convert: code = std::string("cvt") + depthCode(n.depth); rowOpCost_ += 1.0; break;
      case NodeKind::Pointwise: code = std::string("pw") + depthCode(n.depth); rowOpCost_ += 1.0; break;
      case NodeKind::Threshold:
        code = std::string("thr") + depthCode(n.depth) + "t" +
               std::to_string(static_cast<int>(n.ttype));
        rowOpCost_ += 1.0;
        break;
      case NodeKind::Magnitude: code = "mag"; rowOpCost_ += 1.0; break;
      case NodeKind::AddWeighted: code = "addw"; rowOpCost_ += 1.0; break;
      case NodeKind::Morph:
        code = std::string("mor") + std::to_string(n.morphKw) + "x" +
               std::to_string(n.morphKh) + (n.morphMax ? "mx" : "mn");
        maxKh_ = std::max(maxKh_, n.morphKh);
        rowOpCost_ += static_cast<double>(n.morphKw + n.morphKh);
        break;
      case NodeKind::FxGaussian:
        code = "fxg" + std::to_string(n.fxkx.size()) + "x" +
               std::to_string(n.fxky.size());
        maxKh_ = std::max(maxKh_, static_cast<int>(n.fxky.size()));
        // Integer row/col passes move ~1/4 the bytes of the float engine's.
        rowOpCost_ +=
            0.5 * static_cast<double>(n.fxkx.size() + n.fxky.size());
        break;
      case NodeKind::FxSobel:
        code = "fxs" + std::to_string(n.fxsx.size()) + "x" +
               std::to_string(n.fxsy.size());
        maxKh_ = std::max(maxKh_, static_cast<int>(n.fxsy.size()));
        rowOpCost_ +=
            0.5 * static_cast<double>(n.fxsx.size() + n.fxsy.size());
        break;
      case NodeKind::Opaque: {
        code = "op-";
        for (char c : n.name)
          code += (std::isalnum(static_cast<unsigned char>(c)) ? c : '-');
        break;
      }
      case NodeKind::Source: break;
    }
    // Wiring: unary stages off the chain and all binary stages name inputs,
    // so structurally different graphs never share a signature or prof key.
    if (n.in1 >= 0)
      code += "@" + std::to_string(n.in0) + "-" + std::to_string(n.in1);
    else if (n.in0 != id - 1)
      code += "@" + std::to_string(n.in0);
    signature_ += "." + code;
    n.label = internLabel("graph.fused." + code);
    // Windowed stages also sample their horizontal (row) pass.
    if (n.kind == NodeKind::Morph)
      n.rowLabel = internLabel("graph.fused." + code + ".rowMorph");
    else if (n.kind == NodeKind::SepConv || n.kind == NodeKind::FxGaussian ||
             n.kind == NodeKind::FxSobel)
      n.rowLabel = internLabel("graph.fused." + code + ".rowConv");
  }

  if (fusible_ && sink_ != 0) program_ = detail::compileRowProgram(nodes_);
  if (numNodes() > 2) stagedPool_ = std::make_shared<detail::StagedPool>();
}

// ---- fuse decision ----------------------------------------------------------

std::size_t Graph::stagedBytes(int width, int rows) const {
  SIMDCV_REQUIRE(finalized(), "graph: call sink() first");
  std::size_t total = 0;
  for (NodeId id = 1; id < numNodes(); ++id) {
    if (id == sink_) continue;
    total += static_cast<std::size_t>(width) * static_cast<std::size_t>(rows) *
             depthSize(nodes_[static_cast<std::size_t>(id)].depth);
  }
  return total;
}

bool Graph::fuseProfitable(int width, int rows) const {
  SIMDCV_REQUIRE(finalized(), "graph: call sink() first");
  // Fused whenever there are intermediates to keep out of memory. A
  // sink==source graph is a copy and a single-stage graph has nothing to
  // save: the staged schedule is the plain kernel call either way.
  return fusible_ && stagedBytes(width, rows) > 0;
}

// ---- execution --------------------------------------------------------------

namespace {

void requireRunnable(const Graph& g, const Mat& src) {
  SIMDCV_REQUIRE(g.finalized(), "graph: call sink() first");
  SIMDCV_REQUIRE(!src.empty(), "graph: empty source");
  SIMDCV_REQUIRE(src.channels() == 1, "graph: single channel only");
  SIMDCV_REQUIRE(src.depth() == g.node(0).depth,
                 "graph: source depth does not match the declared source");
}

}  // namespace

std::uint64_t Graph::ioBytes(const Mat& src) const {
  return static_cast<std::uint64_t>(src.rows()) * src.cols() *
         (src.elemSize() +
          depthSize(nodes_[static_cast<std::size_t>(sink_)].depth));
}

void Graph::runStaged(const Mat& src, Mat& dst, KernelPath path) const {
  requireRunnable(*this, src);
  std::vector<Mat> vals(numNodes() > 2 ? nodes_.size() : 0);
  runStagedInto(src, dst, path, vals);
}

void Graph::runStagedInto(const Mat& src, Mat& dst, KernelPath path,
                          std::vector<Mat>& vals) const {
  const KernelPath p = resolvePath(path);
  SIMDCV_TRACE_SCOPE("graph.staged", p, ioBytes(src));
  if (sink_ == 0) {
    Mat tmp;
    src.copyTo(tmp);
    dst = std::move(tmp);
    return;
  }
  // The sink writes into dst's storage unless dst aliases the source, so a
  // single-stage graph allocates nothing once dst has its shape. Each
  // intermediate writes into its own slot of vals, which keeps its storage
  // when it already has this geometry.
  Mat result = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  auto value = [&](NodeId id) -> const Mat& {
    return id == 0 ? src : vals[static_cast<std::size_t>(id)];
  };
  for (NodeId id = 1; id < numNodes(); ++id) {
    const detail::Node& n = nodes_[static_cast<std::size_t>(id)];
    const Mat& a = value(n.in0);
    Mat& out = id == sink_ ? result : vals[static_cast<std::size_t>(id)];
    switch (n.kind) {
      case NodeKind::SepConv:
        imgproc::sepFilter2D(a, out, n.depth, n.kx, n.ky, n.border,
                             n.borderValue, p);
        break;
      case NodeKind::Convert:
      case NodeKind::Pointwise:
        core::convertTo(a, out, n.depth, n.alpha, n.beta, p);
        break;
      case NodeKind::Threshold:
        imgproc::threshold(a, out, n.thresh, n.maxval, n.ttype, p);
        break;
      case NodeKind::Magnitude:
        imgproc::gradientMagnitude(a, value(n.in1), out, p);
        break;
      case NodeKind::AddWeighted:
        core::addWeighted(a, n.alpha, value(n.in1), n.beta, n.gamma, out, p);
        break;
      case NodeKind::Morph:
        if (n.morphMax)
          imgproc::dilate(a, out, {n.morphKw, n.morphKh}, p);
        else
          imgproc::erode(a, out, {n.morphKw, n.morphKh}, p);
        break;
      case NodeKind::FxGaussian:
        imgproc::sepFilter2DFxU8(a, out, n.fxkx, n.fxky, n.border,
                                 static_cast<int>(n.borderValue), p);
        break;
      case NodeKind::FxSobel:
        imgproc::sepFilter2DFxS16(a, out, n.fxsx, n.fxsy, n.border,
                                  static_cast<int>(n.borderValue), p);
        break;
      case NodeKind::Opaque:
        n.fn(a, out, p);
        break;
      case NodeKind::Source:
        break;
    }
  }
  dst = std::move(result);
}

namespace detail {

// The free intermediate sets of one graph. A caller takes one for the length
// of a run and gives it back, so the pool holds at most as many sets as there
// were concurrent callers; each keeps the geometry it last ran at.
struct StagedPool {
  std::mutex mu;
  std::vector<std::vector<Mat>> free;

  std::vector<Mat> take(std::size_t slots) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!free.empty()) {
        std::vector<Mat> vals = std::move(free.back());
        free.pop_back();
        return vals;
      }
    }
    return std::vector<Mat>(slots);
  }

  void give(std::vector<Mat> vals) {
    // A slot that wraps or shares its buffer (an opaque stage that set
    // dst = src, a view, or kept a copy of dst; a sink that passed an
    // intermediate through to the caller) would let the next run write into
    // memory someone else sees: drop it, the next run re-creates it.
    for (Mat& m : vals)
      if (!m.ownsStorageAlone()) m = Mat();
    std::lock_guard<std::mutex> lk(mu);
    free.push_back(std::move(vals));
  }
};

}  // namespace detail

void Graph::runPooled(const Mat& src, Mat& dst, KernelPath path) const {
  if (!stagedPool_) {  // no intermediates: nothing to borrow
    runStaged(src, dst, path);
    return;
  }
  // A stage that throws drops the borrowed set with the exception.
  std::vector<Mat> vals = stagedPool_->take(nodes_.size());
  runStagedInto(src, dst, path, vals);
  stagedPool_->give(std::move(vals));
}

void Graph::runFused(const Mat& src, Mat& dst, KernelPath path) const {
  detail::runFusedImpl(*this, src, dst, path, 0);
}

void Graph::run(const Mat& src, Mat& dst, KernelPath path) const {
  requireRunnable(*this, src);
  if (!fusible_) {
    runPooled(src, dst, path);
    return;
  }
  // Fused and staged schedules are bit-exact, so this is pure scheduling.
  if (fuseProfitable(src.cols(), src.rows()))
    detail::runFusedImpl(*this, src, dst, path, 0);
  else
    runPooled(src, dst, path);
}

// ---- prebuilt graphs --------------------------------------------------------

Graph makeEdgeGraph(Depth srcDepth, double thresh, int ksize,
                    imgproc::BorderType border) {
  std::vector<float> kxx, kyx, kxy, kyy;
  imgproc::getDerivKernels(kxx, kyx, 1, 0, ksize, /*normalize=*/false);
  imgproc::getDerivKernels(kxy, kyy, 0, 1, ksize, /*normalize=*/false);
  Graph g;
  const NodeId s = g.source(srcDepth);
  const NodeId gx = g.sepConv(s, std::move(kxx), std::move(kyx), Depth::S16,
                              border, 0.0);
  const NodeId gy = g.sepConv(s, std::move(kxy), std::move(kyy), Depth::S16,
                              border, 0.0);
  const NodeId mag = g.magnitude(gx, gy);
  g.sink(g.threshold(mag, thresh, 255.0, imgproc::ThresholdType::Binary));
  return g;
}

Graph makeBlurGraph(Depth srcDepth, int kw, int kh, double sigmaX,
                    double sigmaY, imgproc::BorderType border) {
  if (sigmaY <= 0) sigmaY = sigmaX;
  Graph g;
  const NodeId s = g.source(srcDepth);
  g.sink(g.sepConv(s, imgproc::getGaussianKernel(kw, sigmaX),
                   imgproc::getGaussianKernel(kh, sigmaY), srcDepth, border,
                   0.0));
  return g;
}

Graph makeThresholdGraph(Depth srcDepth, double thresh, double maxval,
                         imgproc::ThresholdType type) {
  Graph g;
  const NodeId s = g.source(srcDepth);
  g.sink(g.threshold(s, thresh, maxval, type));
  return g;
}

Graph makeBlurSobelThresholdGraph(Depth srcDepth, int blurKsize, double sigma,
                                  int sobelKsize, double thresh,
                                  imgproc::BorderType border) {
  std::vector<float> kx, ky;
  imgproc::getDerivKernels(kx, ky, 1, 0, sobelKsize, /*normalize=*/false);
  Graph g;
  const NodeId s = g.source(srcDepth);
  const NodeId blur =
      g.sepConv(s, imgproc::getGaussianKernel(blurKsize, sigma),
                imgproc::getGaussianKernel(blurKsize, sigma), srcDepth, border,
                0.0);
  const NodeId gx =
      g.sepConv(blur, std::move(kx), std::move(ky), Depth::S16, border, 0.0);
  g.sink(g.threshold(gx, thresh, 255.0, imgproc::ThresholdType::Binary));
  return g;
}

Graph makePhotoGraph(int toneBlurKsize, double toneSigma, int unsharpKsize,
                     double unsharpSigma, double toneAlpha, double toneBeta,
                     double unsharpAmount) {
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId f = g.convert(s, Depth::F32);
  const NodeId smooth =
      g.sepConv(f, imgproc::getGaussianKernel(toneBlurKsize, toneSigma),
                imgproc::getGaussianKernel(toneBlurKsize, toneSigma),
                Depth::F32);
  const NodeId toned = g.pointwise(smooth, Depth::F32, toneAlpha, toneBeta);
  const NodeId base =
      g.sepConv(toned, imgproc::getGaussianKernel(unsharpKsize, unsharpSigma),
                imgproc::getGaussianKernel(unsharpKsize, unsharpSigma),
                Depth::F32);
  // Unsharp mask as a weighted blend: toned*(1+a) - base*a.
  const NodeId sharp =
      g.addWeighted(toned, 1.0 + unsharpAmount, base, -unsharpAmount, 0.0);
  g.sink(g.convert(sharp, Depth::U8));
  return g;
}

Graph makeFxEdgeGraph(int blurKsize, double sigma, int sobelKsize,
                      double thresh, imgproc::BorderType border) {
  const auto kq = imgproc::quantizeKernelQ8(
      imgproc::getGaussianKernel(blurKsize, sigma));
  std::vector<float> fx, fy;
  imgproc::getDerivKernels(fx, fy, 1, 0, sobelKsize, /*normalize=*/false);
  auto toInt = [](const std::vector<float>& f) {
    std::vector<std::int16_t> k(f.size());
    for (std::size_t i = 0; i < f.size(); ++i)
      k[i] = static_cast<std::int16_t>(f[i]);
    return k;
  };
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId blur = g.fxGaussian(s, kq, kq, border, 0.0);
  const NodeId gx = g.fxSobel(blur, toInt(fx), toInt(fy), border, 0.0);
  g.sink(g.threshold(gx, thresh, 255.0, imgproc::ThresholdType::Binary));
  return g;
}

Graph makeMorphGradientGraph(int blurKsize, double sigma, int kw, int kh) {
  const auto kq = imgproc::quantizeKernelQ8(
      imgproc::getGaussianKernel(blurKsize, sigma));
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId blur = g.fxGaussian(s, kq, kq);
  const NodeId hi = g.morph(blur, /*dilate=*/true, kw, kh);
  const NodeId lo = g.morph(blur, /*dilate=*/false, kw, kh);
  // dilate - erode, saturating at 0 (both are u8 and dilate >= erode
  // pointwise, so the blend is the exact morphological gradient).
  g.sink(g.addWeighted(hi, 1.0, lo, -1.0, 0.0));
  return g;
}

}  // namespace simdcv::graph
