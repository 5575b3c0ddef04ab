#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "simdcv.hpp"

namespace simdcv::bench {

namespace {

// SIMDCV_BENCH_VERBOSE=2: trace every span inside the timed window and dump
// the per-kernel x per-path summary after it. Forces tracing on for the
// window (compiled-in builds only) and isolates each measurement's stats
// with a reset.
bool beginTraceWindow() {
  if (benchVerboseLevel() < 2 || !prof::kCompiledIn) return false;
  prof::setEnabled(true);
  prof::reset();
  return true;
}

void endTraceWindow(bool armed, const char* what) {
  if (!armed) return;
  const prof::Snapshot snap = prof::snapshot();
  std::printf("  [prof] span summary for %s:\n", what);
  prof::writeSummary(std::cout, snap);
  std::cout.flush();
}

using platform::BenchKernel;

// Build the per-iteration closure for a kernel. Destination Mats are
// preallocated outside the timed region (as OpenCV reuses buffers); the
// timed work is exactly the kernel, as in the paper.
std::function<void(int)> makeRunner(BenchKernel kernel, KernelPath path,
                                    const std::vector<Mat>& images,
                                    std::vector<Mat>& dsts,
                                    std::vector<Mat>& dsts2) {
  switch (kernel) {
    case BenchKernel::ConvertF32S16:
      return [&, path](int i) {
        const Mat& src = images[static_cast<std::size_t>(i)];
        core::convertTo(src, dsts[static_cast<std::size_t>(i)], Depth::S16,
                        1.0, 0.0, path);
      };
    case BenchKernel::ThresholdU8:
      return [&, path](int i) {
        imgproc::threshold(images[static_cast<std::size_t>(i)],
                           dsts[static_cast<std::size_t>(i)], 128.0, 255.0,
                           imgproc::ThresholdType::Binary, path);
      };
    case BenchKernel::GaussianBlur:
      return [&, path](int i) {
        imgproc::GaussianBlur(images[static_cast<std::size_t>(i)],
                              dsts[static_cast<std::size_t>(i)], {7, 7}, 1.0,
                              1.0, imgproc::BorderType::Reflect101, path);
      };
    case BenchKernel::Sobel:
      return [&, path](int i) {
        imgproc::Sobel(images[static_cast<std::size_t>(i)],
                       dsts2[static_cast<std::size_t>(i)], Depth::S16, 1, 0, 3,
                       1.0, imgproc::BorderType::Reflect101, path);
      };
    case BenchKernel::EdgeDetect:
      return [&, path](int i) {
        imgproc::edgeDetect(images[static_cast<std::size_t>(i)],
                            dsts[static_cast<std::size_t>(i)], 100.0, 3,
                            imgproc::BorderType::Reflect101, path);
      };
  }
  return {};
}

}  // namespace

Measurement measureKernel(platform::BenchKernel kernel, KernelPath path,
                          Size size, const Protocol& proto) {
  const Depth srcDepth =
      kernel == platform::BenchKernel::ConvertF32S16 ? Depth::F32 : Depth::U8;
  const auto images = makeImageSet(size, srcDepth);
  std::vector<Mat> dsts(images.size());
  std::vector<Mat> dsts2(images.size());
  auto fn = makeRunner(kernel, path, images, dsts, dsts2);
  // Guard the timed window against one-time costs. When the runtime is
  // configured for >1 thread the first parallel call spins up the pool
  // (thread creation + stack first-touch); force that here, then run one
  // untimed warm-up pass per image (page faults, allocation) so the
  // protocol's mean only measures steady-state kernel time.
  runtime::warmupPool();
  for (std::size_t i = 0; i < images.size(); ++i) fn(static_cast<int>(i));
  const runtime::PoolStats before = runtime::poolStats();
  const bool traced = beginTraceWindow();
  Measurement m;
  m.stats = summarize(runProtocol(proto, fn));
  m.path = path;
  m.kernel = kernel;
  m.size = size;
  endTraceWindow(traced, platform::toString(kernel));
  if (benchVerboseLevel() >= 1) {
    const runtime::PoolStats after = runtime::poolStats();
    std::printf(
        "  [runtime] threads=%d tasks=%llu steals=%llu parks=%llu "
        "unparks=%llu (%s %dx%d %s)\n",
        runtime::getNumThreads(),
        static_cast<unsigned long long>(after.tasks_executed - before.tasks_executed),
        static_cast<unsigned long long>(after.steals - before.steals),
        static_cast<unsigned long long>(after.parks - before.parks),
        static_cast<unsigned long long>(after.unparks - before.unparks),
        platform::toString(kernel), size.width, size.height,
        pathLabel(path).c_str());
  }
  return m;
}

int benchVerboseLevel() {
  const char* v = std::getenv("SIMDCV_BENCH_VERBOSE");
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || n < 0) return 0;
  return static_cast<int>(n);
}

std::vector<KernelPath> benchPaths() {
  // ScalarNoVec, Auto, then every selectable hand backend (widest first);
  // SIMDCV_DISABLE_BACKENDS therefore prunes bench columns too.
  return caps::availablePaths();
}

std::string pathLabel(KernelPath p) {
  if (p == KernelPath::Neon && !cpuFeatures().neon) return "neon(emu)";
  if (p == KernelPath::Auto) return "AUTO";
  if (p == KernelPath::Sse2) return "HAND(sse2)";
  if (p == KernelPath::Avx2) return "HAND(avx2)";
  if (p == KernelPath::Avx512) return "HAND(avx512)";
  return toString(p);
}

double speedupOf(const Measurement& autoArm, const Measurement& handArm) {
  return handArm.stats.mean > 0 ? autoArm.stats.mean / handArm.stats.mean : 0;
}

void printSimulatedPlatformTable(platform::BenchKernel kernel, Size size) {
  const auto& catalog = platform::platformCatalog();
  Table t({"arm", "Atom D510", "Core2 Q9400", "i7 2820QM", "i5 3360M",
           "DM3730", "Ex-3110", "OMAP4460", "Ex-4412", "ODROID-X", "Tegra T30"});
  std::vector<std::string> autoRow{"AUTO"}, handRow{"HAND"}, spRow{"Speed-up"};
  for (const auto& p : catalog) {
    const auto r = platform::simulate(p, kernel, size);
    autoRow.push_back(fmtSeconds(r.auto_seconds));
    handRow.push_back(fmtSeconds(r.hand_seconds));
    spRow.push_back(fmtSpeedup(r.speedup()));
  }
  t.addRow(autoRow);
  t.addRow(handRow);
  t.addRow(spRow);
  t.print();
}

void printAnchorComparison(platform::BenchKernel kernel) {
  const auto& catalog = platform::platformCatalog();
  bool any = false;
  for (const auto& a : platform::paperAnchors()) {
    if (a.kernel != kernel) continue;
    for (const auto& p : catalog) {
      if (p.name != a.platform) continue;
      const auto r = platform::simulate(p, kernel, {3264, 2448});
      if (!any) {
        std::printf("paper-published speedup anchors (8mpx) vs model:\n");
        any = true;
      }
      std::printf("  %-26s paper %.2fx | model %.2fx\n", p.name.c_str(),
                  a.speedup, r.speedup());
    }
  }
  if (any) std::printf("\n");
}

}  // namespace simdcv::bench
