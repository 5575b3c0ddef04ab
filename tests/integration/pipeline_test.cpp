// Cross-module integration: full image pipelines through the public API,
// including disk round trips and the benchmark kernels chained end-to-end.
#include <gtest/gtest.h>

#include <filesystem>

#include "bench/images.hpp"
#include "core/convert.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/threshold.hpp"
#include "io/image_io.hpp"
#include "simd/caps.hpp"

namespace simdcv {
namespace {

using imgproc::BorderType;
using imgproc::ThresholdType;

std::vector<KernelPath> paths() {
  return caps::availablePaths();
}

// The paper's full processing story: u8 image -> float -> filter ->
// convert back with saturation -> threshold. Every path must produce the
// identical final image.
TEST(Pipeline, FloatFilterRoundTripAllPathsAgree) {
  const Mat src = bench::makeScene(bench::Scene::Natural, {95, 73}, 3);
  Mat ref;
  bool first = true;
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat f32, blurred, back, binary;
    core::convertTo(src, f32, Depth::F32, 1.0, 0.0, p);
    imgproc::GaussianBlur(f32, blurred, {7, 7}, 1.0, 0.0,
                          BorderType::Reflect101, p);
    core::convertTo(blurred, back, Depth::U8, 1.0, 0.0, p);
    imgproc::threshold(back, binary, 128.0, 255.0, ThresholdType::Binary, p);
    if (first) {
      ref = binary.clone();
      first = false;
    } else {
      EXPECT_EQ(countMismatches(ref, binary), 0u) << toString(p);
    }
  }
}

TEST(Pipeline, EdgeDetectionOnSyntheticSceneThroughDisk) {
  const auto dir = std::filesystem::temp_directory_path() / "simdcv_integ";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "scene.bmp").string();

  // Checker has hard edges; smooth scenes would stay below the threshold.
  const Mat scene = bench::makeScene(bench::Scene::Checker, {160, 120}, 5);
  io::writeBmp(path, scene);
  const Mat loaded = io::readBmp(path);
  ASSERT_EQ(countMismatches(scene, loaded), 0u);

  Mat edges;
  imgproc::edgeDetect(loaded, edges, 120.0);
  // Cell boundaries must fire; uniform cell interiors must not.
  int on = 0;
  for (int r = 0; r < edges.rows(); ++r)
    for (int c = 0; c < edges.cols(); ++c)
      if (edges.at<std::uint8_t>(r, c)) ++on;
  EXPECT_GT(on, 50);
  EXPECT_LT(on, edges.rows() * edges.cols() * 6 / 10);

  io::writeBmp((dir / "edges.bmp").string(), edges);
  EXPECT_EQ(countMismatches(edges, io::readBmp((dir / "edges.bmp").string())), 0u);
  std::filesystem::remove_all(dir);
}

TEST(Pipeline, SetUseOptimizedSwitchesDefaultPathResults) {
  // The OpenCV-style global switch must actually change which kernel runs;
  // results stay identical (bit-exact contract) but the switch must
  // round-trip and resolve as documented.
  const Mat src = bench::makeScene(bench::Scene::Checker, {64, 64}, 2);
  setUseOptimized(false);
  EXPECT_EQ(resolvePath(KernelPath::Default), KernelPath::Auto);
  Mat a;
  imgproc::threshold(src, a, 100, 255, ThresholdType::Binary);
  setUseOptimized(true);
  EXPECT_NE(resolvePath(KernelPath::Default), KernelPath::Auto);
  Mat b;
  imgproc::threshold(src, b, 100, 255, ThresholdType::Binary);
  EXPECT_EQ(countMismatches(a, b), 0u);
}

TEST(Pipeline, Convert32F16SOverWholePaperImage) {
  // Benchmark-1 configuration at the smallest paper resolution, all paths.
  const Mat f32 = bench::makeFloatScene(bench::Scene::Natural, {640, 480}, 1);
  Mat ref;
  core::convertTo(f32, ref, Depth::S16, 1.0, 0.0, KernelPath::Auto);
  for (KernelPath p : paths()) {
    if (!pathAvailable(p)) continue;
    Mat got;
    core::convertTo(f32, got, Depth::S16, 1.0, 0.0, p);
    EXPECT_EQ(countMismatches(ref, got), 0u) << toString(p);
  }
  // The scene is engineered to exercise saturation: both rails must appear.
  bool sawMin = false, sawMax = false;
  for (int r = 0; r < ref.rows(); ++r)
    for (int c = 0; c < ref.cols(); ++c) {
      sawMin |= ref.at<std::int16_t>(r, c) == -32768;
      sawMax |= ref.at<std::int16_t>(r, c) == 32767;
    }
  EXPECT_TRUE(sawMin);
  EXPECT_TRUE(sawMax);
}

TEST(Pipeline, UnsharpMaskScenario) {
  // Example-app scenario: sharpen = src + alpha * (src - blur(src)).
  const Mat src = bench::makeScene(bench::Scene::Natural, {80, 60}, 9);
  Mat f32, blur, sharp;
  core::convertTo(src, f32, Depth::F32);
  imgproc::GaussianBlur(f32, blur, {5, 5}, 1.2);
  sharp.create(src.rows(), src.cols(), F32C1);
  for (int r = 0; r < src.rows(); ++r)
    for (int c = 0; c < src.cols(); ++c)
      sharp.at<float>(r, c) =
          f32.at<float>(r, c) + 1.5f * (f32.at<float>(r, c) - blur.at<float>(r, c));
  Mat out;
  core::convertTo(sharp, out, Depth::U8);
  ASSERT_EQ(out.depth(), Depth::U8);
  // Sharpening must not change the mean much but must increase variance.
  auto stats = [](const Mat& m) {
    double s = 0, s2 = 0;
    for (int r = 0; r < m.rows(); ++r)
      for (int c = 0; c < m.cols(); ++c) {
        const double v = m.at<std::uint8_t>(r, c);
        s += v;
        s2 += v * v;
      }
    const double n = static_cast<double>(m.total());
    return std::pair{s / n, s2 / n - (s / n) * (s / n)};
  };
  const auto [meanSrc, varSrc] = stats(src);
  const auto [meanOut, varOut] = stats(out);
  EXPECT_NEAR(meanSrc, meanOut, 6.0);
  EXPECT_GT(varOut, varSrc);
}

TEST(Pipeline, LargeRoiProcessingMatchesFullImage) {
  // Processing an ROI view must equal processing the cropped copy.
  const Mat big = bench::makeScene(bench::Scene::Natural, {128, 128}, 11);
  const Rect rect(17, 9, 64, 64);
  const Mat view = big.roi(rect);
  const Mat copy = view.clone();
  Mat a, b;
  imgproc::GaussianBlur(view, a, {5, 5}, 1.0);
  imgproc::GaussianBlur(copy, b, {5, 5}, 1.0);
  EXPECT_EQ(countMismatches(a, b), 0u);
}

}  // namespace
}  // namespace simdcv
