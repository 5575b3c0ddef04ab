// imgproc::morphOpen / morphClose as cached two-node Morph graphs.
//
// Declared in imgproc/morphology.hpp but defined here, because the graph
// layer sits above imgproc. Both graph schedules are byte-equal to the two
// direct erode/dilate calls; the fused one streams the intermediate through a
// kh-row ring and the staged one keeps it graph-owned, so a warm call into a
// reused dst allocates no Mat.
#include "graph/graph.hpp"
#include "imgproc/morph_detail.hpp"
#include "imgproc/morphology.hpp"

#include <optional>

namespace simdcv::imgproc {

namespace {

/// The last graph one thread built for one of the two operations. Graph::run
/// never calls back into morphOpen/morphClose, so the entry cannot be
/// replaced while it runs.
struct CachedPair {
  Size ksize;
  std::optional<graph::Graph> g;
};

void runPair(CachedPair& cached, bool dilateFirst, const Mat& src, Mat& dst,
             Size ksize, KernelPath path) {
  detail::requireMorphArgs(src, ksize);
  if (!cached.g || !(cached.ksize == ksize)) {
    graph::Graph g;
    const graph::NodeId first =
        g.morph(g.source(Depth::U8), dilateFirst, ksize.width, ksize.height);
    g.sink(g.morph(first, !dilateFirst, ksize.width, ksize.height));
    cached = {ksize, std::move(g)};
  }
  cached.g->run(src, dst, path);
}

}  // namespace

void morphOpen(const Mat& src, Mat& dst, Size ksize, KernelPath path) {
  thread_local CachedPair cached{};
  runPair(cached, /*dilateFirst=*/false, src, dst, ksize, path);
}

void morphClose(const Mat& src, Mat& dst, Size ksize, KernelPath path) {
  thread_local CachedPair cached{};
  runPair(cached, /*dilateFirst=*/true, src, dst, ksize, path);
}

}  // namespace simdcv::imgproc
