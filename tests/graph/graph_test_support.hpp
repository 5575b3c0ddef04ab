// Helpers shared by the pipeline-graph test files: seeded random sources
// and the library's factory graphs.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/mat.hpp"
#include "graph/graph.hpp"

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

}  // namespace simdcv::graph::testing
