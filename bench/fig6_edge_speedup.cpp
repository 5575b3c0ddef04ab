// Figure 6 reproduction: Edge Detection relative speed-up factor.
#include "fig_speedup_common.hpp"

int main(int argc, char** argv) {
  return simdcv::bench::runSpeedupFigure(
      "Figure 6: Edge Detection relative speed-up", "fig6_edge_speedup",
      simdcv::platform::BenchKernel::EdgeDetect, argc, argv);
}
