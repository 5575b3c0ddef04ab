// imgproc::edgeDetect: the paper's benchmark 5 as a cached edge graph.
//
// Declared in imgproc/edge.hpp (the public API is unchanged) but defined
// here, because the graph layer sits above imgproc. The graph executor's
// fused schedule is bit-exact with edgeDetectUnfused, and Graph::run owns the
// fuse decision.
#include "graph/graph.hpp"
#include "imgproc/edge.hpp"

#include <optional>

namespace simdcv::imgproc {

void edgeDetect(const Mat& src, Mat& dst, double thresh, int ksize,
                BorderType border, KernelPath path) {
  SIMDCV_REQUIRE(ksize >= 3 && (ksize & 1) == 1,
                 "edgeDetect: ksize must be odd and >= 3");
  // Building the graph costs a few microseconds (tens on first use), a
  // percent or two of a VGA edge call, so each thread keeps the last one.
  // Graph::run never calls back into edgeDetect, so the entry cannot be
  // replaced while it runs.
  struct Cached {
    Depth depth;
    double thresh;
    int ksize;
    BorderType border;
    std::optional<graph::Graph> g;
  };
  thread_local Cached cached{};
  if (!cached.g || cached.depth != src.depth() || cached.thresh != thresh ||
      cached.ksize != ksize || cached.border != border) {
    graph::Graph g = graph::makeEdgeGraph(src.depth(), thresh, ksize, border);
    cached = {src.depth(), thresh, ksize, border, std::move(g)};
  }
  cached.g->run(src, dst, path);
}

}  // namespace simdcv::imgproc
