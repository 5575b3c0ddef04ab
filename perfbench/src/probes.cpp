// Per-layer probes of a traced run, each timing public calls into one layer
// on the workload's own inputs:
//
//   ceiling.*   memcpy bandwidth at an L2-resident size and at the 8 mpx
//               working-set size (L3-resident on a large-L3 host);
//   graph.*     run() / runFused() / runStaged() per chain, interleaved, at
//               the workload's thread count, plus the fuse choice's regret;
//   kernel.*    each chain's staged schedule replayed as its public kernel
//               calls on one thread: ns per output pixel, GB/s computed from
//               image sizes, and that rate as a share of the copy ceiling;
//   simd.*      the paper's five benchmarks, Default path vs KernelPath::Auto,
//               and the photo chain's staged time per hand-written path;
//   runtime.band_efficiency.*  run() at 1 thread vs nproc threads.
#include <cstring>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kKernels[] = {
    "gaussian", "sobel",  "magnitude", "threshold", "convert",
    "addweighted", "gaussian_fx", "sobel_fx", "erode", "dilate",
    "median", "otsu", "morph_close"};
constexpr const char* kHandPaths[] = {"sse2", "avx2", "avx512"};

// 8 mpx probes get fewer repetitions than 640x480 ones.
bool isLarge(const Mat& m) { return m.total() * m.elemSize() > (1u << 21); }

template <typename Fn>
double timeMs(Fn&& fn) {
  const std::uint64_t t0 = now();
  fn();
  return ms(now() - t0);
}

struct Ceilings {
  double l2 = 0, big = 0;
  std::size_t l2Bytes = 0;
};

// Copy bandwidth in GB/s (bytes read + bytes written per ns), median of
// 15 samples of `copies` memcpy calls over `bytes`-sized buffers.
double copyGbps(std::size_t bytes, int copies) {
  std::vector<std::uint8_t> a(bytes, 1), b(bytes, 0);
  std::vector<double> gbps;
  for (int s = 0; s < 16; ++s) {
    const std::uint64_t t0 = now();
    for (int i = 0; i < copies; ++i) {
      std::memcpy(b.data(), a.data(), bytes);
      a[static_cast<std::size_t>(i) % bytes] = b[bytes - 1];
    }
    const double ns = static_cast<double>(now() - t0);
    if (s > 0) gbps.push_back(2.0 * static_cast<double>(bytes) * copies / ns);
  }
  return median(gbps);
}

Ceilings ceilings(Report& report) {
  const platform::HostInfo host = platform::queryHost();
  Ceilings c;
  const std::size_t l2 = static_cast<std::size_t>(host.l2_kb > 0 ? host.l2_kb : 1024) * 1024;
  c.l2Bytes = l2;
  c.l2 = copyGbps(l2 / 4, 64);
  const std::size_t big = static_cast<std::size_t>(k8mpx.width) * k8mpx.height;
  c.big = copyGbps(big, 2);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "copy ceiling: %.1f GB/s at 2x%zu KB (L2 %d KB: resident), "
                "%.1f GB/s at 2x%zu KB (L3 %d KB: %s)",
                c.l2, l2 / 4 / 1024, host.l2_kb, c.big, big / 1024, host.l3_kb,
                static_cast<std::size_t>(host.l3_kb) * 1024 >= 2 * big
                    ? "L3-resident, not DRAM"
                    : "exceeds L3");
  Report::note(buf);
  report.add("ceiling.copy_gbps.l2", c.l2, "GB/s");
  report.add("ceiling.copy_gbps.8mpx", c.big, "GB/s");
  return c;
}

struct KernelSamples {
  std::vector<double> nsPerPx, gbps;
  std::size_t largeCalls = 0;
};

}  // namespace

ProbeResult runProbes(const ProbeInputs& in, Report& report, Tracer& tracer) {
  ScopedSpan probeRoot(&tracer, "probe");
  const std::vector<Mat>& sc = *in.chainScenes;
  const std::vector<Mat>& scan = *in.scanScenes;
  const bool large = isLarge(sc[0]);
  const int reps = large ? 10 : 40;
  const int n = hostCpus();
  ProbeResult result;
  char buf[200];

  const Ceilings ceil = ceilings(report);

  // ---- graph schedules at the workload's thread count ----------------------
  runtime::setNumThreads(in.threads);
  std::vector<Chain> chains = batchChains();
  std::vector<std::vector<Mat>> staged(chains.size());
  {
    ScopedSpan sp(&tracer, "graph.schedules", probeRoot.id());
    for (std::size_t c = 0; c < chains.size(); ++c) {
      const graph::Graph& g = chains[c].g;
      for (const Mat& m : sc) {
        staged[c].emplace_back();
        g.runStaged(m, staged[c].back());
      }
      std::vector<double> run, fused, stg;
      Mat d;
      for (int r = 0; r < reps; ++r) {
        const std::size_t s = static_cast<std::size_t>(r) % sc.size();
        run.push_back(timeMs([&] { g.run(sc[s], d); }));
        report.count(sameBytes(d, staged[c][s]));
        fused.push_back(timeMs([&] { g.runFused(sc[s], d); }));
        report.count(sameBytes(d, staged[c][s]));
        stg.push_back(timeMs([&] { g.runStaged(sc[s], d); }));
      }
      const std::string p = std::string("graph.") + chains[c].name;
      const double runMs = median(run), fusedMs = median(fused), stagedMs = median(stg);
      report.add(p + ".run_ms", runMs, "ms");
      report.add(p + ".fused_ms", fusedMs, "ms");
      report.add(p + ".staged_ms", stagedMs, "ms");
      report.add(p + ".staged_bytes",
                 static_cast<double>(g.stagedBytes(sc[0].cols(), sc[0].rows())), "B");
      report.add(p + ".choice_regret", runMs / std::min(fusedMs, stagedMs), "ratio");
      if (std::strcmp(chains[c].name, "edge") == 0) result.edgeRunMs = runMs;
    }
    const serve::PipelineFn scanner = serve::pipelineFn("scanner");
    std::vector<Mat> scanRef(scan.size());
    for (std::size_t s = 0; s < scan.size(); ++s)
      scannerDirect(scan[s], scanRef[s], KernelPath::Default);
    std::vector<double> run, stg;
    Mat d;
    for (int r = 0; r < reps; ++r) {
      const std::size_t s = static_cast<std::size_t>(r) % scan.size();
      run.push_back(timeMs([&] { scanner(scan[s], d, KernelPath::Default); }));
      report.count(sameBytes(d, scanRef[s]));
      stg.push_back(timeMs([&] { scannerDirect(scan[s], d, KernelPath::Default); }));
    }
    report.add("graph.scanner.run_ms", median(run), "ms");
    report.add("graph.scanner.staged_ms", median(stg), "ms");
  }

  // ---- kernels: staged replays on one thread --------------------------------
  runtime::setNumThreads(1);
  {
    ScopedSpan sp(&tracer, "kernel.replay", probeRoot.id());
    std::map<std::string, KernelSamples> ks;
    const KernelHook hook = [&](const char* k, std::uint64_t a, std::uint64_t b,
                                std::uint64_t px, std::uint64_t bytes) {
      const double ns = static_cast<double>(b - a);
      KernelSamples& s = ks[k];
      s.nsPerPx.push_back(ns / static_cast<double>(px));
      s.gbps.push_back(static_cast<double>(bytes) / ns);
      if (bytes > ceil.l2Bytes) ++s.largeCalls;
      Span span;
      span.name = std::string("kernel.") + k;
      span.start = a;
      span.end = b;
      span.parent = sp.id();
      span.lane = threadLane();
      tracer.record(std::move(span));
    };
    const int kreps = large ? 5 : 20;
    for (std::size_t c = 0; c < chains.size(); ++c)
      for (int r = 0; r < kreps; ++r) {
        const std::size_t s = static_cast<std::size_t>(r) % sc.size();
        Mat d;
        replayStaged(chains[c].g, sc[s], d, KernelPath::Default, hook);
        report.count(sameBytes(d, staged[c][s]));
      }
    for (int r = 0; r < kreps; ++r) {
      const std::size_t s = static_cast<std::size_t>(r) % scan.size();
      Mat d, ref;
      scannerDirect(scan[s], d, KernelPath::Default, &hook);
      scannerDirect(scan[s], ref, KernelPath::Default);
      report.count(sameBytes(d, ref));
    }
    for (const char* k : kKernels) {
      const KernelSamples& s = ks[k];
      const double gbps = median(s.gbps);
      const double ceiling = s.largeCalls * 2 > s.gbps.size() ? ceil.big : ceil.l2;
      const std::string p = std::string("kernel.") + k;
      report.add(p + ".ns_per_px", median(s.nsPerPx), "ns/px");
      report.add(p + ".gbps", gbps, "GB/s");
      report.add(p + ".ceiling_frac", gbps / ceiling, "ratio");
    }
  }

  // ---- simd: Default vs Auto (the paper's HAND/AUTO), photo per path -------
  {
    ScopedSpan sp(&tracer, "simd.paths", probeRoot.id());
    std::vector<Mat> fsc(sc.size());
    for (std::size_t s = 0; s < sc.size(); ++s)  // spans the s16 saturation range
      core::convertTo(sc[s], fsc[s], Depth::F32, 2.5 * 32768.0 / 255.0, -1.25 * 32768.0);
    using Bench = std::function<void(std::size_t, Mat&, KernelPath)>;
    const std::pair<const char*, Bench> benches[] = {
        {"convert", [&](std::size_t s, Mat& d, KernelPath p) {
           core::convertTo(fsc[s], d, Depth::S16, 1.0, 0.0, p); }},
        {"threshold", [&](std::size_t s, Mat& d, KernelPath p) {
           imgproc::threshold(sc[s], d, 128.0, 255.0, imgproc::ThresholdType::Binary, p); }},
        {"gaussian", [&](std::size_t s, Mat& d, KernelPath p) {
           imgproc::GaussianBlur(sc[s], d, {7, 7}, 1.0, 1.0, imgproc::BorderType::Reflect101, p); }},
        {"sobel", [&](std::size_t s, Mat& d, KernelPath p) {
           imgproc::Sobel(sc[s], d, Depth::S16, 1, 0, 3, 1.0, imgproc::BorderType::Reflect101, p); }},
        {"edge", [&](std::size_t s, Mat& d, KernelPath p) {
           imgproc::edgeDetect(sc[s], d, 100.0, 3, imgproc::BorderType::Reflect101, p); }},
    };
    const int sreps = large ? 4 : 20;
    for (const auto& [name, fn] : benches) {
      std::vector<double> hand, autov;
      Mat dh, da;
      for (int r = 0; r < sreps; ++r) {
        const std::size_t s = static_cast<std::size_t>(r) % sc.size();
        hand.push_back(timeMs([&] { fn(s, dh, KernelPath::Default); }));
        autov.push_back(timeMs([&] { fn(s, da, KernelPath::Auto); }));
        report.count(sameBytes(dh, da));
      }
      report.add(std::string("simd.speedup_vs_auto.") + name,
                 median(autov) / median(hand), "ratio");
    }
    const graph::Graph& photo = chains[0].g;
    for (const char* name : kHandPaths) {
      KernelPath p = KernelPath::Default;
      const bool ok = caps::parseBackend(name, &p) && caps::selectable(p);
      std::vector<double> t;
      Mat d;
      for (int r = 0; ok && r < sreps; ++r) {
        const std::size_t s = static_cast<std::size_t>(r) % sc.size();
        t.push_back(timeMs([&] { photo.runStaged(sc[s], d, p); }));
        report.count(sameBytes(d, staged[0][s]));
      }
      if (!ok) Report::note(std::string("path ") + name + " not selectable: 0");
      report.add(std::string("simd.photo_staged_ms.") + name, median(t), "ms");
    }
  }

  // ---- runtime: band efficiency, 1 thread vs nproc --------------------------
  {
    ScopedSpan sp(&tracer, "runtime.bands", probeRoot.id());
    requireThreads(n, "band-efficiency probe (caller + pool workers)");
    for (std::size_t c = 0; c < chains.size(); ++c) {
      std::vector<double> t1, tn;
      Mat d;
      for (int r = 0; r < reps; ++r) {
        const std::size_t s = static_cast<std::size_t>(r) % sc.size();
        runtime::setNumThreads(1);
        t1.push_back(timeMs([&] { chains[c].g.run(sc[s], d); }));
        runtime::setNumThreads(n);
        tn.push_back(timeMs([&] { chains[c].g.run(sc[s], d); }));
        report.count(sameBytes(d, staged[c][s]));
      }
      report.add(std::string("runtime.band_efficiency.") + chains[c].name,
                 median(t1) / (n * median(tn)), "ratio");
    }
  }
  runtime::setNumThreads(in.threads);
  std::snprintf(buf, sizeof(buf), "probes at %dx%d (scanner %dx%d), %d thread(s)",
                sc[0].cols(), sc[0].rows(), scan[0].cols(), scan[0].rows(), in.threads);
  Report::note(buf);
  return result;
}

}  // namespace perfbench
