// Document scanner pipeline: the segmentation workload binary thresholding
// (benchmark 2) exists for. Synthesizes a noisy "photographed page" (or
// loads one), then: denoise -> deskew -> binarize (Otsu) -> clean up with
// morphology -> find text blobs with connected components -> report and
// save every stage.
//
//   ./document_scanner [input.{bmp,pgm}] [output-dir]
#include <cstdio>
#include <string>

#include "simdcv.hpp"

using namespace simdcv;
using namespace simdcv::imgproc;

namespace {

// A synthetic "page photo": dark text-like bars on paper, slight rotation,
// vignetting and salt-and-pepper sensor noise.
Mat synthesizePage() {
  const int w = 640, h = 480;
  Mat page = full(h, w, U8C1, 205);
  // Text lines: short dark dashes.
  bench::Rng rng(7);
  for (int line = 0; line < 14; ++line) {
    const int y = 40 + line * 28;
    int x = 50;
    while (x < w - 60) {
      const int len = 12 + static_cast<int>(rng.next() % 40);
      page.roi({x, y, std::min(len, w - 60 - x) + 1, 8}).setTo(35);
      x += len + 8 + static_cast<int>(rng.next() % 12);
    }
  }
  // Slight skew: rotate 3 degrees about the center.
  Mat skewed;
  const AffineMat fwd = getRotationMatrix2D(w / 2.0, h / 2.0, 3.0, 1.0);
  warpAffine(page, skewed, invertAffine(fwd), {w, h}, BorderType::Replicate);
  // Vignette + impulse noise.
  for (int r = 0; r < h; ++r) {
    std::uint8_t* p = skewed.ptr<std::uint8_t>(r);
    for (int c = 0; c < w; ++c) {
      const double dx = (c - w / 2.0) / (w / 2.0);
      const double dy = (r - h / 2.0) / (h / 2.0);
      const double vig = 1.0 - 0.25 * (dx * dx + dy * dy);
      int v = static_cast<int>(p[c] * vig);
      if (rng.next() % 97 == 0) v = (rng.next() & 1) ? 255 : 0;  // impulses
      p[c] = static_cast<std::uint8_t>(v);
    }
  }
  return skewed;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string input = argc > 1 ? argv[1] : "";
  const std::string dir = argc > 2 ? argv[2] : ".";

  Mat photo = input.empty() ? synthesizePage() : io::readImage(input);
  SIMDCV_REQUIRE(photo.channels() == 1, "document_scanner expects grayscale");
  io::writeBmp(dir + "/scan_0_input.bmp", photo);

  // 1. Impulse-noise removal (median is the right tool; benchmark family
  //    of the 23x related-work result).
  Mat denoised;
  medianBlur(photo, denoised, 3);
  io::writeBmp(dir + "/scan_1_median.bmp", denoised);

  // 2. Deskew: brute-force search for the rotation that maximizes row-
  //    projection variance (text lines align -> peaky projections).
  double bestAngle = 0, bestVar = -1;
  for (double a = -5.0; a <= 5.0; a += 0.5) {
    Mat rot;
    const AffineMat fwd = getRotationMatrix2D(photo.cols() / 2.0,
                                              photo.rows() / 2.0, a, 1.0);
    warpAffine(denoised, rot, invertAffine(fwd),
               {photo.cols(), photo.rows()}, BorderType::Replicate);
    // Row projection variance.
    double mean = 0, var = 0;
    std::vector<double> proj(static_cast<std::size_t>(rot.rows()), 0);
    for (int r = 0; r < rot.rows(); ++r) {
      double s = 0;
      for (int c = 0; c < rot.cols(); ++c) s += rot.at<std::uint8_t>(r, c);
      proj[static_cast<std::size_t>(r)] = s;
      mean += s;
    }
    mean /= rot.rows();
    for (double v : proj) var += (v - mean) * (v - mean);
    if (var > bestVar) {
      bestVar = var;
      bestAngle = a;
    }
  }
  Mat deskewed;
  const AffineMat fwd = getRotationMatrix2D(photo.cols() / 2.0,
                                            photo.rows() / 2.0, bestAngle, 1.0);
  warpAffine(denoised, deskewed, invertAffine(fwd),
             {photo.cols(), photo.rows()}, BorderType::Replicate);
  std::printf("deskew: best angle %.1f deg\n", bestAngle);
  io::writeBmp(dir + "/scan_2_deskew.bmp", deskewed);

  // 3. Binarize with Otsu's automatic threshold (text dark -> BinaryInv).
  const double t = otsuThreshold(deskewed);
  Mat binary;
  threshold(deskewed, binary, t, 255.0, ThresholdType::BinaryInv);
  std::printf("otsu threshold: %.0f\n", t);
  io::writeBmp(dir + "/scan_3_binary.bmp", binary);

  // 4. Morphological close merges dashes into word blobs.
  Mat blobs;
  morphClose(binary, blobs, {9, 3});
  io::writeBmp(dir + "/scan_4_blobs.bmp", blobs);

  // Stages 3-4 declared as a pipeline graph: a real threshold node (the
  // Otsu level is data-dependent, so the graph is built after measuring it)
  // feeding the close as its two Morph nodes (dilate -> erode, the Replicate
  // border morphClose uses). Every node is in the fusible vocabulary, so the
  // graph streams threshold -> dilate -> erode through row rings without
  // materializing the binary or dilated image; its output must equal the
  // direct calls above byte for byte.
  graph::Graph g;
  const graph::NodeId src = g.source(Depth::U8);
  const graph::NodeId bin = g.threshold(src, t, 255.0, ThresholdType::BinaryInv);
  const graph::NodeId dil = g.morph(bin, /*dilate=*/true, 9, 3);
  g.sink(g.morph(dil, /*dilate=*/false, 9, 3));
  SIMDCV_REQUIRE(g.fusible(), "document_scanner: close graph should be fusible");
  Mat gblobs;
  g.run(deskewed, gblobs);
  SIMDCV_REQUIRE(countMismatches(blobs, gblobs) == 0,
                 "document_scanner: graph output differs from direct calls");
  std::printf("graph '%s': output identical to direct calls\n",
              g.signature().c_str());

  // 5. Connected components = word candidates; filter tiny specks.
  Mat labels;
  std::vector<ComponentStats> stats;
  const int n = connectedComponentsWithStats(blobs, labels, stats);
  int words = 0;
  double meanH = 0;
  for (const auto& s : stats) {
    if (s.area < 20) continue;
    ++words;
    meanH += s.bbox.height;
  }
  if (words) meanH /= words;
  std::printf("components: %d total, %d word-sized (mean height %.1f px)\n",
              n, words, meanH);

  std::printf("wrote scan_{0_input,1_median,2_deskew,3_binary,4_blobs}.bmp\n");
  return 0;
} catch (const Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
