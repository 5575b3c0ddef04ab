// Helpers shared by the pipeline-graph test files: seeded random sources
// and the library's factory graphs.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/mat.hpp"
#include "graph/graph.hpp"
#include "imgproc/histogram.hpp"
#include "imgproc/median.hpp"
#include "imgproc/threshold.hpp"

namespace simdcv::graph::testing {

inline Mat randomMat(int rows, int cols, Depth d, unsigned seed) {
  Mat m(rows, cols, PixelType(d, 1));
  std::mt19937 rng(seed);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      const std::uint32_t v = rng();
      switch (d) {
        case Depth::U8:
          m.at<std::uint8_t>(r, c) = static_cast<std::uint8_t>(v & 0xff);
          break;
        case Depth::S16:
          m.at<std::int16_t>(r, c) = static_cast<std::int16_t>(v & 0xffff);
          break;
        default:
          m.at<float>(r, c) =
              static_cast<float>(static_cast<int>(v & 0xffff) - 32768) / 64.0f;
          break;
      }
    }
  return m;
}

struct NamedGraph {
  std::string name;
  Graph g;
  Depth srcDepth;
};

/// Every factory graph (the chains the library and the serve presets run).
inline std::vector<NamedGraph> factoryGraphs() {
  using imgproc::BorderType;
  std::vector<NamedGraph> v;
  v.push_back({"edge-u8",
               makeEdgeGraph(Depth::U8, 90.0, 3, BorderType::Reflect101),
               Depth::U8});
  v.push_back({"edge-f32",
               makeEdgeGraph(Depth::F32, 90.0, 3, BorderType::Reflect101),
               Depth::F32});
  v.push_back({"blur",
               makeBlurGraph(Depth::U8, 7, 7, 1.6, 1.6, BorderType::Reflect101),
               Depth::U8});
  v.push_back({"threshold",
               makeThresholdGraph(Depth::U8, 128.0, 255.0,
                                  imgproc::ThresholdType::Binary),
               Depth::U8});
  v.push_back({"blur-sobel-thr",
               makeBlurSobelThresholdGraph(Depth::U8, 5, 1.1, 3, 700.0,
                                           BorderType::Replicate),
               Depth::U8});
  v.push_back({"photo", makePhotoGraph(5, 0.9, 7, 1.4, 1.12, -8.0, 1.4),
               Depth::U8});
  v.push_back({"fxedge",
               makeFxEdgeGraph(5, 1.1, 3, 300.0, BorderType::Reflect101),
               Depth::U8});
  v.push_back({"morphgrad", makeMorphGradientGraph(5, 1.2, 5, 3), Depth::U8});
  return v;
}

/// The serve "scanner" preset's shape: two opaque stages (median 3, Otsu
/// binarize) and the close as two Morph nodes. Never fusible, so run()
/// takes the staged schedule on graph-owned intermediates.
inline Graph makeScannerShapedGraph() {
  Graph g;
  const NodeId s = g.source(Depth::U8);
  const NodeId den =
      g.opaque(s, "median3", Depth::U8, [](const Mat& a, Mat& d, KernelPath p) {
        imgproc::medianBlur(a, d, 3, p);
      });
  const NodeId bin = g.opaque(
      den, "otsu-binarize", Depth::U8, [](const Mat& a, Mat& d, KernelPath p) {
        imgproc::threshold(a, d, imgproc::otsuThreshold(a, p), 255.0,
                           imgproc::ThresholdType::BinaryInv, p);
      });
  const NodeId dil = g.morph(bin, /*dilate=*/true, 9, 3);
  g.sink(g.morph(dil, /*dilate=*/false, 9, 3));
  return g;
}

}  // namespace simdcv::graph::testing
