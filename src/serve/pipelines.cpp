// Pipeline-template registry and the built-in presets.
//
// Presets are the serving form of the example applications: each is a fixed
// chain of public kernels parameterized only by the request's KernelPath, so
// a served response is bit-identical to calling the chain directly (the
// guarantee tests/serve asserts per preset).
#include <map>
#include <mutex>
#include <utility>

#include "graph/graph.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/histogram.hpp"
#include "imgproc/median.hpp"
#include "imgproc/threshold.hpp"
#include "serve/serve.hpp"

namespace simdcv::serve {

namespace {

std::mutex g_registry_mu;

std::map<std::string, PipelineFn>& registryLocked() {
  static std::map<std::string, PipelineFn> registry;
  return registry;
}

void registerLocked(const std::string& name, PipelineFn fn) {
  registryLocked()[name] = std::move(fn);
}

// The built-in presets, installed once before the first lookup, each
// expressed as a pipeline Graph (both schedules of a graph are byte-equal to
// the direct kernel chain, so served responses stay bit-identical to calling
// the chain directly — the guarantee tests/serve asserts per preset). Graphs declare the source
// depth, so depth-polymorphic presets keep one frozen Graph per accepted
// depth and select by src.depth(). Thresholds and kernel shapes mirror the
// examples they were lifted from (examples/edge_detection.cpp,
// photo_pipeline.cpp, document_scanner.cpp).
void ensurePresets() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::lock_guard<std::mutex> lk(g_registry_mu);
    registerLocked("edge", [](const Mat& src, Mat& dst, KernelPath path) {
      static const graph::Graph g8 = graph::makeEdgeGraph(
          Depth::U8, 100.0, 3, imgproc::BorderType::Reflect101);
      static const graph::Graph g32 = graph::makeEdgeGraph(
          Depth::F32, 100.0, 3, imgproc::BorderType::Reflect101);
      (src.depth() == Depth::F32 ? g32 : g8).run(src, dst, path);
    });
    registerLocked("blur", [](const Mat& src, Mat& dst, KernelPath path) {
      static const graph::Graph g8 = graph::makeBlurGraph(
          Depth::U8, 7, 7, 1.6, 1.6, imgproc::BorderType::Reflect101);
      static const graph::Graph g32 = graph::makeBlurGraph(
          Depth::F32, 7, 7, 1.6, 1.6, imgproc::BorderType::Reflect101);
      (src.depth() == Depth::F32 ? g32 : g8).run(src, dst, path);
    });
    registerLocked("threshold", [](const Mat& src, Mat& dst, KernelPath path) {
      auto make = [](Depth d) {
        return graph::makeThresholdGraph(d, 128.0, 255.0,
                                         imgproc::ThresholdType::Binary);
      };
      static const graph::Graph g8 = make(Depth::U8);
      static const graph::Graph g16 = make(Depth::S16);
      static const graph::Graph g32 = make(Depth::F32);
      const graph::Graph& g = src.depth() == Depth::F32   ? g32
                              : src.depth() == Depth::S16 ? g16
                                                          : g8;
      g.run(src, dst, path);
    });
    registerLocked("scanner", [](const Mat& src, Mat& dst, KernelPath path) {
      // Document binarization: impulse denoise, automatic threshold (text is
      // dark -> BinaryInv), then a morphological close to merge dashes into
      // word blobs — the document_scanner chain minus its search stages.
      // Median (a rank filter) and the Otsu binarize (its level is
      // data-dependent) are opaque, so the graph runs staged; the close is
      // declared as its two Morph nodes (dilate -> erode, Replicate border,
      // byte-equal to morphClose), so the dilated image is one more
      // graph-owned intermediate and a request allocates only its response.
      static const graph::Graph g = [] {
        graph::Graph b;
        const graph::NodeId s = b.source(Depth::U8);
        const graph::NodeId den = b.opaque(
            s, "median3", Depth::U8, [](const Mat& a, Mat& d, KernelPath p) {
              imgproc::medianBlur(a, d, 3, p);
            });
        const graph::NodeId bin = b.opaque(
            den, "otsu-binarize", Depth::U8,
            [](const Mat& a, Mat& d, KernelPath p) {
              const double t = imgproc::otsuThreshold(a, p);
              imgproc::threshold(a, d, t, 255.0,
                                 imgproc::ThresholdType::BinaryInv, p);
            });
        const graph::NodeId dil = b.morph(bin, /*dilate=*/true, 9, 3);
        b.sink(b.morph(dil, /*dilate=*/false, 9, 3));
        return b;
      }();
      g.run(src, dst, path);
    });
  });
}

}  // namespace

void registerPipeline(const std::string& name, PipelineFn fn) {
  ensurePresets();
  std::lock_guard<std::mutex> lk(g_registry_mu);
  registerLocked(name, std::move(fn));
}

PipelineFn pipelineFn(const std::string& name) {
  ensurePresets();
  std::lock_guard<std::mutex> lk(g_registry_mu);
  const auto& registry = registryLocked();
  const auto it = registry.find(name);
  return it == registry.end() ? PipelineFn() : it->second;
}

bool hasPipeline(const std::string& name) {
  return static_cast<bool>(pipelineFn(name));
}

std::vector<std::string> pipelineNames() {
  ensurePresets();
  std::lock_guard<std::mutex> lk(g_registry_mu);
  std::vector<std::string> names;
  names.reserve(registryLocked().size());
  for (const auto& [name, fn] : registryLocked()) names.push_back(name);
  return names;
}

}  // namespace simdcv::serve
