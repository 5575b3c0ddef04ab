// Benchmark family B6: the integer kernel tier.
//
// Two halves, both ratio-metrics (within-process, so clock drift cancels):
//
//   morph   erode/dilate/open/close with a rect SE at the paper resolutions,
//           per SIMD path, speedup over the scalar-novec walk of the same
//           separable running-min/max engine. u8 min/max is carry-free, so
//           all rows are bit-exact and the ratio isolates lane width.
//   fixedpt GaussianBlurFx vs GaussianBlur and SobelFx vs Sobel on the SAME
//           path — the fixed-point-vs-float ablation. Both sides run the
//           identical banded ring schedule; the ratio isolates the
//           8/16-bit-lane tier against the widen-to-float32 tier.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "simdcv.hpp"

namespace {

using namespace simdcv;
using namespace simdcv::bench;

// One table row: `base_s` is the scalar-novec walk (morph) or the float
// engine (fixedpt), `this_s` the measured variant.
void addSpeedupRow(Table& t, const char* resolution, const char* op,
                   const std::string& path, double base_s, double this_s) {
  t.addRow({resolution, op, path, fmtSeconds(base_s), fmtSeconds(this_s),
            fmtSpeedup(this_s > 0 ? base_s / this_s : 0.0)});
}

Measurement measureOp(const std::function<void(const Mat&, Mat&)>& op,
                      Size size, const Protocol& proto) {
  const auto images = makeImageSet(size, Depth::U8);
  std::vector<Mat> dsts(images.size());
  auto fn = [&](int i) {
    const auto idx = static_cast<std::size_t>(i);
    op(images[idx], dsts[idx]);
  };
  runtime::warmupPool();
  for (std::size_t i = 0; i < images.size(); ++i) fn(static_cast<int>(i));
  Measurement m;
  m.stats = summarize(runProtocol(proto, fn));
  m.size = size;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  printHostBanner("Family B6: morphology + fixed-point kernel tier");
  const auto proto = Protocol::fromArgs(argc, argv);

  // -- morphology: SIMD path vs scalar-novec, same engine ---------------------
  struct MorphOp {
    const char* name;
    Size se;
    void (*fn)(const Mat&, Mat&, Size, KernelPath);
  };
  const std::vector<MorphOp> morphOps = {
      {"erode3x3", {3, 3}, &imgproc::erode},
      {"dilate3x3", {3, 3}, &imgproc::dilate},
      {"open5x5", {5, 5}, &imgproc::morphOpen},
      {"close5x5", {5, 5}, &imgproc::morphClose},
  };
  std::printf("-- morphology: speedup over scalar-novec --\n");
  Table mt({"size", "op", "path", "novec", "simd", "speedup"});
  for (const auto& r : paperResolutions()) {
    for (const auto& op : morphOps) {
      const auto base = measureOp(
          [&](const Mat& s, Mat& d) {
            op.fn(s, d, op.se, KernelPath::ScalarNoVec);
          },
          r.size, proto);
      for (KernelPath p : benchPaths()) {
        if (!pathAvailable(p) || p == KernelPath::ScalarNoVec) continue;
        const auto m = measureOp(
            [&](const Mat& s, Mat& d) { op.fn(s, d, op.se, p); }, r.size,
            proto);
        addSpeedupRow(mt, r.label, op.name, pathLabel(p), base.stats.mean,
                      m.stats.mean);
      }
    }
  }
  mt.print();

  // -- fixed-point vs float, same path ----------------------------------------
  std::printf("\n-- fixed-point vs float-engine ablation --\n");
  Table ft({"size", "op", "path", "float", "fixed", "speedup"});
  for (const auto& r : paperResolutions()) {
    for (KernelPath p : benchPaths()) {
      if (!pathAvailable(p)) continue;
      {  // Gaussian 5x5: u8->u8 through Q8 taps vs widen-to-f32.
        const auto fl = measureOp(
            [&](const Mat& s, Mat& d) {
              imgproc::GaussianBlur(s, d, {5, 5}, 1.2, 1.2,
                                    imgproc::BorderType::Reflect101, p);
            },
            r.size, proto);
        const auto fx = measureOp(
            [&](const Mat& s, Mat& d) {
              imgproc::GaussianBlurFx(s, d, {5, 5}, 1.2, 1.2,
                                      imgproc::BorderType::Reflect101, p);
            },
            r.size, proto);
        addSpeedupRow(ft, r.label, "gaussian5", pathLabel(p), fl.stats.mean,
                      fx.stats.mean);
      }
      {  // Sobel 3x3 dx: u8->s16 exact i16 vs the f32 engine (bit-exact pair).
        const auto fl = measureOp(
            [&](const Mat& s, Mat& d) {
              imgproc::Sobel(s, d, Depth::S16, 1, 0, 3, 1.0,
                             imgproc::BorderType::Reflect101, p);
            },
            r.size, proto);
        const auto fx = measureOp(
            [&](const Mat& s, Mat& d) {
              imgproc::SobelFx(s, d, 1, 0, 3,
                               imgproc::BorderType::Reflect101, p);
            },
            r.size, proto);
        addSpeedupRow(ft, r.label, "sobel3", pathLabel(p), fl.stats.mean,
                      fx.stats.mean);
      }
    }
  }
  ft.print();
  std::printf(
      "\n(All rows are differential-checked: morph paths are bit-exact, the\n"
      "fixed-point Gaussian is within +/-1 LSB of the float engine on the\n"
      "quantized taps, and the fixed-point Sobel is bit-exact with it.)\n");

  return 0;
}
