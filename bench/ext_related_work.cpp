// Extension bench: the OpenCV routines the paper's related work ([23],
// Pulli et al., CACM 2012) reports NEON speedups for on Tegra 3 — median
// blur (23x), color conversion (9.5x), resizing (7.6x) — measured here with
// our kernels, each HAND backend vs the 2012-style no-vectorizer baseline and
// vs today's auto-vectorizer.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "simdcv.hpp"

using namespace simdcv;

namespace {

double timeIt(const std::function<void()>& fn, int reps) {
  bench::Timer t;
  t.start();
  for (int i = 0; i < reps; ++i) fn();
  return t.stop() / reps;
}

}  // namespace

int main() {
  bench::printHostBanner("Extension: related-work kernels ([23] Tegra 3 NEON)");
  const int reps = 10;
  const Size size{1920, 1080};  // 1080p, the video size [23] targets
  // One column per selectable hand backend: the widest arm does not always
  // win, so every width is timed. Default is the arm the library runs.
  const std::vector<KernelPath> hand = caps::handPaths();
  const KernelPath def = resolvePath(KernelPath::Default);

  const Mat gray = bench::makeScene(bench::Scene::Natural, size, 1);
  Mat bgr;
  imgproc::cvtColor(gray, bgr, imgproc::ColorCode::GRAY2BGR);
  const Mat patch = gray.roi({1000, 500, 32, 32}).clone();
  const Mat search = gray.roi({900, 400, 160, 160});

  std::vector<std::string> header = {"kernel", "novec", "AUTO"};
  for (KernelPath p : hand) header.emplace_back(toString(p));
  for (const char* h : {"Default/novec", "Default/AUTO", "paper-cited NEON"})
    header.emplace_back(h);
  bench::Table t(header);

  auto addRow = [&](const char* name, const char* cited,
                    const std::function<void(KernelPath)>& fn) {
    const double novec = timeIt([&] { fn(KernelPath::ScalarNoVec); }, reps);
    const double autov = timeIt([&] { fn(KernelPath::Auto); }, reps);
    double deft = autov;
    std::vector<std::string> row = {name, bench::fmtSeconds(novec),
                                    bench::fmtSeconds(autov)};
    for (KernelPath p : hand) {
      const double s = timeIt([&] { fn(p); }, reps);
      if (p == def) deft = s;
      row.push_back(bench::fmtSeconds(s));
    }
    row.push_back(bench::fmtSpeedup(novec / deft));
    row.push_back(bench::fmtSpeedup(autov / deft));
    row.emplace_back(cited);
    t.addRow(row);
  };

  Mat dst;
  addRow("medianBlur 3x3", "23x", [&](KernelPath p) {
    imgproc::medianBlur(gray, dst, 3, p);
  });
  addRow("cvtColor BGR->GRAY", "9.5x", [&](KernelPath p) {
    imgproc::cvtColor(bgr, dst, imgproc::ColorCode::BGR2GRAY, p);
  });
  addRow("resize 1080p -> 720p", "7.6x", [&](KernelPath p) {
    imgproc::resize(gray, dst, {1280, 720}, imgproc::Interp::Linear, p);
  });
  addRow("SAD match 32x32 in 160x160", "-", [&](KernelPath p) {
    bench::doNotOptimize(imgproc::findBestMatch(search, patch, p).sad);
  });
  addRow("pyrDown", "-", [&](KernelPath p) { imgproc::pyrDown(gray, dst, p); });
  addRow("Canny 80/200", "1.6x", [&](KernelPath p) {
    imgproc::Canny(gray, dst, 80, 200, 3, p);
  });
  t.print();

  std::printf(
      "\nNotes: [23]'s factors compare NEON against OpenCV's scalar builds\n"
      "on a Cortex-A9 (closest column: Default/novec). novec is the scalar\n"
      "source built -fno-tree-vectorize; AUTO the same source vectorized.\n"
      "The x86 ratios differ because (a) the scalar ISA is stronger and (b)\n"
      "the gather-heavy parts of resize do not vectorize at all on either\n"
      "compiler generation. The neon column, where present, is the emulated\n"
      "HAND-NEON arm (scalar code behind the intrinsic names) on x86.\n");
  return 0;
}
