// batch-8mpx: one caller runs Graph::run back to back over a fixed cycle of
// the photo, fxedge, morphgrad and edge chains on 3264x2448 u8 scenes, with
// the runtime at kThreads threads (the caller plus kThreads-1 pool workers).
// Every output is checked against the chain's staged reference; check time
// is excluded from the call timings.
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 9;
constexpr int kThreads = 4;  ///< at most nproc (checked)
constexpr std::size_t kWindow = 16;  ///< images per latency window
constexpr double kWarmupSeconds = 1;  ///< untimed closed loop before timing

struct Inputs {
  std::vector<Mat> src;
  std::vector<std::vector<Mat>> ref;  ///< [chain][scene], runStaged outputs
};

// Graph construction to ready: the chains, the thread count, pool spin-up
// (after a full pool shutdown) and one first call per chain.
double setupOnce(int threads, const Inputs& in, std::vector<Chain>& keep,
                 Report& report) {
  runtime::shutdownPool();
  const std::uint64_t t0 = now();
  std::vector<Chain> chains = batchChains();
  runtime::setNumThreads(threads);
  runtime::warmupPool();
  for (std::size_t c = 0; c < chains.size(); ++c) {
    Mat d;
    chains[c].g.run(in.src[0], d);
    report.count(sameBytes(d, in.ref[c][0]));
  }
  const double s = static_cast<double>(now() - t0) * 1e-9;
  keep = std::move(chains);
  return s;
}

struct Loop {
  std::vector<std::vector<double>> callMs;  ///< per chain
  std::vector<double> imageMs;               ///< per scene: all chains' calls
  double runNs = 0;                          ///< sum of run() call times
  std::uint64_t calls = 0;
  double px = 0;
  std::uint64_t allocs = 0;
  runtime::PoolStats pool;
};

// Back-to-back run() calls for `seconds`, whole chain cycles only. Latency
// is per image: one scene through all four chains (a per-call percentile
// would sit in the gap between the chains' very different times). With a
// tracer, each scene's cycle is an "image" root with one graph.run child
// per call; the root's self time is the output checks.
Loop closedLoop(const std::vector<Chain>& chains, const Inputs& in,
                double seconds, Report& report, Tracer* tracer) {
  Loop l;
  l.callMs.resize(chains.size());
  std::vector<Mat> dst(chains.size());
  const std::uint64_t allocs0 = matAllocationCount();
  const runtime::PoolStats pool0 = runtime::poolStats();
  const std::uint64_t end = now() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint32_t img = 0; img == 0 || now() < end; ++img) {
    const std::size_t scene = img % kScenes;
    const Mat& src = in.src[scene];
    ScopedSpan root(tracer, "image", 0, img + 1);
    double imageMs = 0;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      const std::uint64_t t0 = now();
      chains[c].g.run(src, dst[c]);
      const std::uint64_t t1 = now();
      if (tracer != nullptr) {
        Span s;
        s.name = "graph.run";
        s.start = t0;
        s.end = t1;
        s.parent = root.id();
        s.req = img + 1;
        s.lane = threadLane();
        tracer->record(std::move(s));
      }
      l.callMs[c].push_back(ms(t1 - t0));
      imageMs += ms(t1 - t0);
      l.runNs += static_cast<double>(t1 - t0);
      l.px += static_cast<double>(src.total());
      ++l.calls;
      report.count(sameBytes(dst[c], in.ref[c][scene]));
    }
    l.imageMs.push_back(imageMs);
  }
  l.allocs = matAllocationCount() - allocs0;
  l.pool = poolDelta(runtime::poolStats(), pool0);
  return l;
}

// Per-image latency as the quiet median of kWindow-image windows (see
// quietMedian); the rates follow from it, so a host stall in a few images
// does not set any of the three figures.
double imageMs(const Loop& l) { return quietMedian(l.imageMs, kWindow); }
double throughputMpxS(const Loop& l) {
  const double pxPerImage = l.px / static_cast<double>(l.imageMs.size());
  return pxPerImage * 1e-3 / imageMs(l);
}

}  // namespace

void runBatch(const Options& opt, Report& report) {
  Inputs in;
  in.src = scenes(k8mpx, opt.seed);
  for (const Chain& c : batchChains()) {
    in.ref.emplace_back();
    for (const Mat& m : in.src) {
      Mat r;
      c.g.runStaged(m, r);
      in.ref.back().push_back(r);
    }
  }
  const int threads = std::min(kThreads, hostCpus());
  requireThreads(threads, "closed loop (caller + pool workers)");

  std::vector<double> setups;
  std::vector<Chain> chains;
  for (int r = 0; r < kSetupReps; ++r)
    setups.push_back(setupOnce(threads, in, chains, report));

  const double loopSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  closedLoop(chains, in, kWarmupSeconds, report, nullptr);
  const Loop loop = closedLoop(chains, in, loopSeconds, report, nullptr);
  char buf[200];
  for (std::size_t c = 0; c < chains.size(); ++c) {
    std::snprintf(buf, sizeof(buf), "chain %-9s run() p50 %.3f ms (n=%zu)",
                  chains[c].name, median(loop.callMs[c]), loop.callMs[c].size());
    Report::note(buf);
  }

  if (!opt.trace) {
    std::snprintf(buf, sizeof(buf),
                  "samples: latency n=%zu images (%llu run() calls) at %d "
                  "threads, p50 %.4f ms, p95 %.4f ms, p99 %.4f ms, mean-based "
                  "%.1f Mpx/s, fail_frac %.6f",
                  loop.imageMs.size(), static_cast<unsigned long long>(loop.calls),
                  threads, percentile(loop.imageMs, 0.5),
                  percentile(loop.imageMs, 0.95), percentile(loop.imageMs, 0.99),
                  loop.px * 1e-6 / (loop.runNs * 1e-9),
                  static_cast<double>(report.failed()) /
                      static_cast<double>(report.attempted()));
    Report::note(buf);
    Report::note("window median ms: " + join(windowPercentiles(loop.imageMs, kWindow, 0.5)));
    report.add("latency_p50_ms", imageMs(loop), "ms");
    report.add("max_rate_rps", static_cast<double>(chains.size()) * 1e3 / imageMs(loop), "1/s");
    report.add("throughput_mpx_s", throughputMpxS(loop), "Mpx/s");
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    return;
  }

  Tracer tracer;
  const Loop traced = closedLoop(chains, in, loopSeconds, report, &tracer);
  WindowLayers wl;
  wl.images = static_cast<double>(traced.calls);
  wl.matAllocsPerRequest = static_cast<double>(traced.allocs) / wl.images;
  wl.pool = traced.pool;
  wl.overheadFrac = throughputMpxS(loop) / throughputMpxS(traced) - 1.0;

  ProbeInputs pin;
  pin.chainScenes = &in.src;
  pin.scanScenes = &in.src;
  pin.threads = threads;
  const ProbeResult probe = runProbes(pin, report, tracer);
  emitLayers(wl, probe, tracer.rollup("image"), report);
  tracer.writeChromeTrace("perfbench-trace-" + opt.workload + ".json");
}

}  // namespace perfbench
