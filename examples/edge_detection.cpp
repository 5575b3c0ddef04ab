// Edge-detection pipeline on real or synthetic images, step by step —
// the paper's benchmark 5 decomposed into its stages, each saved to disk.
//
//   ./edge_detection [input.{bmp,pgm,ppm}] [threshold] [output-dir]
//
// Without an input file a synthetic document-like scene is used. Shows
// Sobel gradients (dx/dy), the L1 magnitude, and thresholded edge maps at
// several sensitivities.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "simdcv.hpp"

using namespace simdcv;

namespace {

Mat loadOrSynthesize(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]).find('.') != std::string::npos) {
    Mat img = io::readImage(argv[1]);
    if (img.channels() == 3) {
      Mat gray;
      imgproc::cvtColor(img, gray, imgproc::ColorCode::BGR2GRAY);
      return gray;
    }
    return img;
  }
  return bench::makeScene(bench::Scene::Checker, {800, 600}, 7);
}

}  // namespace

int main(int argc, char** argv) try {
  const Mat src = loadOrSynthesize(argc, argv);
  const double thresh = argc > 2 ? std::atof(argv[2]) : 120.0;
  const std::string dir = argc > 3 ? argv[3] : ".";
  std::printf("input %dx%d, threshold %.1f\n", src.cols(), src.rows(), thresh);

  // Stage 1: denoise lightly before differentiating.
  Mat smooth;
  imgproc::GaussianBlur(src, smooth, {3, 3}, 0.8);

  // Stage 2: Sobel gradients (16-bit signed to keep the dynamic range).
  Mat gx, gy;
  imgproc::Sobel(smooth, gx, Depth::S16, 1, 0, 3);
  imgproc::Sobel(smooth, gy, Depth::S16, 0, 1, 3);

  // Visualize gradients: map [-1020,1020] to u8 around mid-gray.
  Mat gxVis, gyVis;
  core::convertTo(gx, gxVis, Depth::U8, 0.125, 128.0);
  core::convertTo(gy, gyVis, Depth::U8, 0.125, 128.0);
  io::writeBmp(dir + "/edge_gx.bmp", gxVis);
  io::writeBmp(dir + "/edge_gy.bmp", gyVis);

  // Stage 3: L1 gradient magnitude.
  Mat mag;
  imgproc::gradientMagnitude(gx, gy, mag);
  io::writeBmp(dir + "/edge_magnitude.bmp", mag);

  // Stage 4: binary edge maps at three sensitivities.
  for (double scale : {0.5, 1.0, 2.0}) {
    Mat edges;
    imgproc::threshold(mag, edges, thresh * scale, 255.0,
                       imgproc::ThresholdType::Binary);
    char name[64];
    std::snprintf(name, sizeof(name), "/edge_t%03d.bmp",
                  static_cast<int>(thresh * scale));
    io::writeBmp(dir + name, edges);
    int on = 0;
    for (int r = 0; r < edges.rows(); ++r)
      for (int c = 0; c < edges.cols(); ++c)
        if (edges.at<std::uint8_t>(r, c)) ++on;
    std::printf("  threshold %6.1f: %6.2f%% edge pixels -> %s%s\n",
                thresh * scale, 100.0 * on / static_cast<double>(edges.total()),
                dir.c_str(), name);
  }

  // One-call equivalent of the whole pipeline (minus the pre-blur).
  Mat onecall;
  imgproc::edgeDetect(src, onecall, thresh);
  io::writeBmp(dir + "/edge_onecall.bmp", onecall);
  std::printf("wrote edge_{gx,gy,magnitude,tNNN,onecall}.bmp\n");
  return 0;
} catch (const Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
