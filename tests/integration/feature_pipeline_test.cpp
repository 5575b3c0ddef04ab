// Cross-module integration over the feature/geometry modules: corners +
// template matching + warping + resizing + connected components, end to end.
#include <gtest/gtest.h>

#include "bench/images.hpp"
#include "imgproc/connected.hpp"
#include "imgproc/geometry.hpp"
#include "imgproc/harris.hpp"
#include "imgproc/match.hpp"
#include "imgproc/resize.hpp"
#include "imgproc/threshold.hpp"

namespace simdcv {
namespace {

using namespace imgproc;

TEST(FeaturePipeline, TrackPatchAcrossTranslation) {
  // "Video tracking" scenario: take a frame, shift it, and recover the
  // motion of a distinctive patch by SAD matching.
  const Mat frame0 = bench::makeScene(bench::Scene::Natural, {160, 120}, 21);
  AffineMat shift = affineIdentity();
  shift[2] = 7;  // dst samples src at x+7: content moves left by 7
  shift[5] = 4;
  Mat frame1;
  warpAffine(frame0, frame1, shift, {160, 120}, BorderType::Replicate);

  // Pick the strongest Harris corner away from the borders as the patch
  // (harrisCorners returns strongest first, as in examples/image_align).
  const auto kps = harrisCorners(frame0, 100, 0.01, 5.0);
  ASSERT_FALSE(kps.empty());
  KeyPoint best{};
  for (const auto& kp : kps)
    if (kp.x > 20 && kp.x < 120 && kp.y > 20 && kp.y < 90) {
      best = kp;
      break;
    }
  ASSERT_GT(best.score, 0);

  const Mat patch = frame0.roi({best.x - 8, best.y - 8, 16, 16}).clone();
  const auto found = findBestMatch(frame1, patch);
  // Content moved by (-7, -4): the patch reappears at origin - shift.
  EXPECT_EQ(found.x, best.x - 8 - 7);
  EXPECT_EQ(found.y, best.y - 8 - 4);
}

TEST(FeaturePipeline, BlobCountingUnderRotation) {
  // Blob count is invariant to moderate rotation: threshold -> components.
  Mat blobs = zeros(96, 96, U8C1);
  for (int i = 0; i < 5; ++i)
    blobs.roi({12 + i * 16, 20 + (i % 2) * 30, 8, 8}).setTo(255);
  Mat labels;
  EXPECT_EQ(connectedComponents(blobs, labels), 5);

  Mat rotated;
  const AffineMat fwd = getRotationMatrix2D(48, 48, 20.0, 1.0);
  warpAffine(blobs, rotated, invertAffine(fwd), {96, 96},
             BorderType::Constant, 0.0);
  Mat rebin;
  threshold(rotated, rebin, 100, 255, ThresholdType::Binary);
  EXPECT_EQ(connectedComponents(rebin, labels), 5);
}

TEST(FeaturePipeline, ResizeThenMatchStillLocalizes) {
  // Downscale-then-match: a 2x downscaled patch matches the downscaled
  // frame at halved coordinates.
  const Mat frame = bench::makeScene(bench::Scene::Natural, {128, 128}, 30);
  Mat half;
  resize(frame, half, {64, 64});
  const Mat patch = half.roi({20, 28, 12, 12}).clone();
  const auto found = findBestMatch(half, patch);
  EXPECT_EQ(found.x, 20);
  EXPECT_EQ(found.y, 28);
  EXPECT_EQ(found.sad, 0u);
}

}  // namespace
}  // namespace simdcv
