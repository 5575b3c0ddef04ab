#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> windowPercentiles(const std::vector<double>& v,
                                      std::size_t window, double q) {
  const std::size_t k = std::max<std::size_t>(1, v.size() / window);
  std::vector<double> per;
  for (std::size_t j = 0; j < k; ++j) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(j * window);
    const auto last = j + 1 == k ? v.end() : first + static_cast<std::ptrdiff_t>(window);
    per.push_back(percentile(std::vector<double>(first, last), q));
  }
  return per;
}

double quietMedian(const std::vector<double>& v, std::size_t window) {
  return percentile(windowPercentiles(v, window, 0.5), 0.25);
}

std::string join(const std::vector<double>& v) {
  std::string s;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

int hostCpus() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void requireThreads(int threads, const char* phase) {
  Report::note(std::string("threads ") + phase + ": " +
               std::to_string(threads) + " of " + std::to_string(hostCpus()) +
               " CPUs");
  if (threads > hostCpus())
    throw std::runtime_error(std::string(phase) + " would run " +
                             std::to_string(threads) + " threads on " +
                             std::to_string(hostCpus()) + " CPUs");
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

void Report::print() const {
  for (const auto& [name, vu] : metrics_)
    std::printf("%-40s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool sameBytes(const Mat& a, const Mat& b) {
  if (a.empty() || b.empty()) return false;
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.type() != b.type())
    return false;
  const std::size_t rowBytes = static_cast<std::size_t>(a.cols()) * a.elemSize();
  for (int y = 0; y < a.rows(); ++y)
    if (std::memcmp(a.ptr<std::uint8_t>(y), b.ptr<std::uint8_t>(y), rowBytes) != 0)
      return false;
  return true;
}

std::vector<Mat> scenes(Size size, std::uint32_t seed) {
  std::vector<Mat> v;
  for (int s = 0; s < kScenes; ++s)
    v.push_back(bench::makeScene(static_cast<bench::Scene>(s), size, seed));
  return v;
}

std::vector<Chain> batchChains() {
  std::vector<Chain> c;
  c.push_back({"photo", graph::makePhotoGraph(5, 0.9, 7, 1.4, 1.12, -8.0, 1.4)});
  c.push_back({"fxedge", graph::makeFxEdgeGraph(
                             5, 1.2, 3, 80.0, imgproc::BorderType::Reflect101)});
  c.push_back({"morphgrad", graph::makeMorphGradientGraph(5, 1.2, 5, 5)});
  c.push_back({"edge", edgeGraph()});
  return c;
}

graph::Graph edgeGraph() {
  return graph::makeEdgeGraph(Depth::U8, 100.0, 3,
                              imgproc::BorderType::Reflect101);
}

namespace {

std::uint64_t bytesOf(const Mat& m) {
  return static_cast<std::uint64_t>(m.total()) * m.elemSize();
}

// Time one public call and report it to `hook` (when set).
template <typename Fn>
void timed(const KernelHook* hook, const char* kernel, const Mat& in,
           const Mat& out, std::uint64_t extraIn, Fn&& fn) {
  const std::uint64_t t0 = now();
  fn();
  const std::uint64_t t1 = now();
  if (hook != nullptr && *hook)
    (*hook)(kernel, t0, t1, in.total(),
            bytesOf(in) + extraIn + (out.empty() ? 0 : bytesOf(out)));
}

void medianStage(const Mat& a, Mat& d, KernelPath p, const KernelHook* hook) {
  timed(hook, "median", a, d, 0, [&] { imgproc::medianBlur(a, d, 3, p); });
}

void otsuStage(const Mat& a, Mat& d, KernelPath p, const KernelHook* hook) {
  double t = 0;
  timed(hook, "otsu", a, Mat(), 0, [&] { t = imgproc::otsuThreshold(a, p); });
  timed(hook, "threshold", a, d, 0, [&] {
    imgproc::threshold(a, d, t, 255.0, imgproc::ThresholdType::BinaryInv, p);
  });
}

void closeStage(const Mat& a, Mat& d, KernelPath p, const KernelHook* hook) {
  timed(hook, "morph_close", a, d, 0,
        [&] { imgproc::morphClose(a, d, {9, 3}, p); });
}

bool anyNegative(const std::vector<float>& k) {
  return std::any_of(k.begin(), k.end(), [](float v) { return v < 0; });
}

}  // namespace

void scannerDirect(const Mat& src, Mat& dst, KernelPath path,
                   const KernelHook* hook) {
  Mat den, bin;
  medianStage(src, den, path, hook);
  otsuStage(den, bin, path, hook);
  closeStage(bin, dst, path, hook);
}

graph::Graph scannerGraph(const KernelHook* hook) {
  graph::Graph b;
  const graph::NodeId s = b.source(Depth::U8);
  const graph::NodeId den = b.opaque(
      s, "median3", Depth::U8,
      [hook](const Mat& a, Mat& d, KernelPath p) { medianStage(a, d, p, hook); });
  const graph::NodeId bin = b.opaque(
      den, "otsu-binarize", Depth::U8,
      [hook](const Mat& a, Mat& d, KernelPath p) { otsuStage(a, d, p, hook); });
  b.sink(b.opaque(
      bin, "morph-close", Depth::U8,
      [hook](const Mat& a, Mat& d, KernelPath p) { closeStage(a, d, p, hook); }));
  return b;
}

void replayStaged(const graph::Graph& g, const Mat& src, Mat& dst,
                  KernelPath p, const KernelHook& hook) {
  using graph::NodeKind;
  std::vector<Mat> vals(static_cast<std::size_t>(g.numNodes()));
  vals[0] = src;
  for (graph::NodeId id = 1; id < g.numNodes(); ++id) {
    const graph::detail::Node& n = g.node(id);
    const Mat& a = vals[static_cast<std::size_t>(n.in0)];
    const Mat& b = n.in1 >= 0 ? vals[static_cast<std::size_t>(n.in1)] : Mat();
    Mat& out = vals[static_cast<std::size_t>(id)];
    const KernelHook* h = &hook;
    switch (n.kind) {
      case NodeKind::SepConv:
        timed(h, anyNegative(n.kx) || anyNegative(n.ky) ? "sobel" : "gaussian",
              a, out, 0, [&] {
                imgproc::sepFilter2D(a, out, n.depth, n.kx, n.ky, n.border,
                                     n.borderValue, p);
              });
        break;
      case NodeKind::Convert:
      case NodeKind::Pointwise:
        timed(h, "convert", a, out, 0, [&] {
          core::convertTo(a, out, n.depth, n.alpha, n.beta, p);
        });
        break;
      case NodeKind::Threshold:
        timed(h, "threshold", a, out, 0, [&] {
          imgproc::threshold(a, out, n.thresh, n.maxval, n.ttype, p);
        });
        break;
      case NodeKind::Magnitude:
        timed(h, "magnitude", a, out, bytesOf(b),
              [&] { imgproc::gradientMagnitude(a, b, out, p); });
        break;
      case NodeKind::AddWeighted:
        timed(h, "addweighted", a, out, bytesOf(b), [&] {
          core::addWeighted(a, n.alpha, b, n.beta, n.gamma, out, p);
        });
        break;
      case NodeKind::Morph:
        timed(h, n.morphMax ? "dilate" : "erode", a, out, 0, [&] {
          if (n.morphMax)
            imgproc::dilate(a, out, {n.morphKw, n.morphKh}, p);
          else
            imgproc::erode(a, out, {n.morphKw, n.morphKh}, p);
        });
        break;
      case NodeKind::FxGaussian:
        timed(h, "gaussian_fx", a, out, 0, [&] {
          imgproc::sepFilter2DFxU8(a, out, n.fxkx, n.fxky, n.border,
                                   static_cast<int>(n.borderValue), p);
        });
        break;
      case NodeKind::FxSobel:
        timed(h, "sobel_fx", a, out, 0, [&] {
          imgproc::sepFilter2DFxS16(a, out, n.fxsx, n.fxsy, n.border,
                                    static_cast<int>(n.borderValue), p);
        });
        break;
      case NodeKind::Opaque:
        n.fn(a, out, p);
        break;
      case NodeKind::Source:
        break;
    }
  }
  dst = std::move(vals[static_cast<std::size_t>(g.sinkId())]);
}

runtime::PoolStats poolDelta(const runtime::PoolStats& after,
                             const runtime::PoolStats& before) {
  return {after.tasks_executed - before.tasks_executed, after.steals - before.steals,
          after.parks - before.parks, after.unparks - before.unparks};
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace perfbench
