// serve-edge-vga and serve-mixed-scan: an open-loop load generator in front
// of a 2-worker serve::Engine.
//
// One dispatcher (the main thread) calls trySubmit on a fixed schedule and,
// between submissions, collects finished responses in order, checks each
// output byte for byte against its precomputed reference and frees it.
// Latency runs from each request's due time, so a stalled dispatcher or a
// queue that backs up shows up in later requests. Threads: dispatcher + 2
// engine workers = 3; kernels run inline on the workers (the engine's
// default), so the runtime pool is never started during the load.
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

namespace {

struct Spec {
  const char* name;
  double rate;         ///< fixed offered rate, requests/s
  double scanShare;    ///< share of scanner@1024x960 requests
  double ladderBase;   ///< ladder rung 0, requests/s
};

// About 30% of the capacity max_rate_rps finds on the reference host when it
// is quiet (see README).
constexpr Spec kSpecs[] = {
    {"serve-edge-vga", 400, 0.0, 200},
    {"serve-mixed-scan", 200, 0.3, 100},
};
constexpr double kLadderStep = 1.03;  ///< rung k = base * 1.03^k
constexpr int kLadderRungs = 90;
constexpr double kP99LimitMs = 50;    ///< ladder latency limit (see README)
constexpr int kWorkers = 2;
constexpr int kSetupReps = 31;
// Headroom for host stalls: a dispatcher descheduled for 160 ms catches up
// with a burst of 64 submissions at 400 req/s. The queue holds over a second
// of the fixed rates' traffic, and the deadline is as long, so a stall of
// the host does not fail requests at the fixed rates.
constexpr std::size_t kQueueCapacity = 512;
constexpr std::uint64_t kDeadlineNs = 1'000'000'000;  // 1 s
constexpr double kFixedShare = 0.5;  ///< of --seconds; the ladder gets the rest
constexpr double kWarmupSeconds = 1;  ///< untimed open loop before the window
constexpr double kMaxGrowth = 8;     ///< backlog growth that counts as growing
constexpr int kCoarse = 8;            ///< rungs per step of the coarse climb
constexpr double kProbeSeconds = 0.75; ///< one ladder window
constexpr std::size_t kSubWindow = 250;  ///< requests per latency sub-window

enum Cls : std::uint8_t { kSmall = 0, kLarge = 1 };
constexpr const char* kPresets[2] = {"edge", "scanner"};
constexpr const char* kTracedPipes[2] = {"perfbench.edge", "perfbench.scanner"};

struct Inputs {
  std::vector<Mat> src[2];
  std::vector<Mat> ref[2];
};

// Seeded request stream: every block of kBlock requests holds exactly
// round(scanShare * kBlock) large requests in a seeded order, so the mix is
// exact over any second of traffic while arrival order still varies with the
// seed. Scenes are cycled per class.
class Traffic {
 public:
  static constexpr int kBlock = 10;
  Traffic(std::uint32_t seed, double scanShare)
      : rng_(seed * 0x9e3779b1u + 7),
        large_(static_cast<int>(std::lround(scanShare * kBlock))) {}
  std::pair<Cls, int> next() {
    if (pos_ == kBlock) pos_ = 0;
    if (pos_ == 0) {  // Fisher-Yates over a fresh block
      for (int i = 0; i < kBlock; ++i) block_[i] = i < large_ ? kLarge : kSmall;
      for (int i = kBlock - 1; i > 0; --i)
        std::swap(block_[i], block_[rng_.next() % static_cast<std::uint32_t>(i + 1)]);
    }
    const Cls c = block_[pos_++];
    return {c, next_[c]++ % kScenes};
  }

 private:
  bench::Rng rng_;
  int large_;
  Cls block_[kBlock] = {};
  int pos_ = 0;
  int next_[2] = {0, 0};
};

struct Outcome {
  Cls cls = kSmall;
  int scene = 0;
  std::uint64_t due = 0, call = 0, submit = 0, start = 0, done = 0;
  serve::Status status = serve::Status::Ok;
  bool ok = false;  ///< status Ok and output identical to the reference
  double latencyMs() const { return ms(done - due); }
};

struct Window {
  std::vector<Outcome> out;
  std::size_t maxQueued = 0;
  double backlogGrowth = 0;  ///< mean queue depth, last quarter - first quarter
  serve::Stats stats;  ///< delta over the window
  std::uint64_t allocs = 0;
  runtime::PoolStats pool;
  std::uint64_t first = 0, last = 0;
};

serve::Stats operator-(const serve::Stats& a, const serve::Stats& b) {
  serve::Stats d;
  d.submitted = a.submitted - b.submitted;
  d.accepted = a.accepted - b.accepted;
  d.rejected_full = a.rejected_full - b.rejected_full;
  d.rejected_shutdown = a.rejected_shutdown - b.rejected_shutdown;
  d.expired = a.expired - b.expired;
  d.aborted = a.aborted - b.aborted;
  d.completed = a.completed - b.completed;
  d.errors = a.errors - b.errors;
  return d;
}

// Spans of one served request: the request root from its due time to its
// response, and the layer spans inside it (children are disjoint).
void recordRequestSpans(Tracer& tracer, const Outcome& o, std::uint32_t req,
                        std::vector<Span> worker) {
  const std::uint32_t lane = 1000 + req % 16;
  auto add = [&](const char* name, std::uint64_t a, std::uint64_t b,
                 std::uint32_t parent) {
    Span s;
    s.name = name;
    s.start = a;
    s.end = b > a ? b : a;
    s.parent = parent;
    s.req = req;
    s.lane = lane;
    return tracer.record(std::move(s));
  };
  const std::uint32_t root = add("request", o.due, o.done, 0);
  add("gen.late", o.due, o.call, root);
  if (o.submit >= o.call) add("serve.admit", o.call, o.submit, root);
  add("serve.queue", o.submit, o.start, root);
  const std::uint32_t exec = add("serve.exec", o.start, o.done, root);
  std::uint32_t run = 0;
  for (Span& s : worker)
    if (s.name == "graph.run") {
      s.parent = exec;
      s.req = req;
      run = tracer.record(s);
    }
  for (Span& s : worker)
    if (s.name != "graph.run") {
      s.parent = run != 0 ? run : exec;
      s.req = req;
      tracer.record(std::move(s));
    }
}

// One open-loop window: round(rate * seconds) requests on a fixed schedule.
// Between submissions the dispatcher collects, in submission order, every
// response that is already complete: it checks the output and frees it.
// Latency comes from the engine's timestamps, so when a response is
// collected does not change it. Every outcome is counted in `report`; shed
// requests (rejected/expired) count as failed only when `shedFails` (ladder
// rungs above capacity shed by design and are judged by the ladder).
Window openLoop(serve::Engine& engine, const Inputs& in, Traffic& traffic,
                double rate, double seconds, const char* const pipes[2],
                bool shedFails, Report& report, Tracer* tracer,
                std::uint32_t& reqIds) {
  Window w;
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
  w.out.resize(n);
  std::vector<std::size_t> depth(n);  // queue depth after each submit
  serve::SubmitOptions so;
  so.deadline_ns = kDeadlineNs;
  const std::uint32_t firstReq = reqIds;
  const serve::Stats stats0 = engine.stats();
  const std::uint64_t allocs0 = matAllocationCount();
  const runtime::PoolStats pool0 = runtime::poolStats();

  std::deque<std::pair<std::size_t, std::future<serve::Response>>> inflight;
  auto collect = [&](bool block) {
    while (!inflight.empty()) {
      auto& [i, fut] = inflight.front();
      if (!block &&
          fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
        return;
      serve::Response r = fut.get();
      Outcome& o = w.out[i];
      o.status = r.status;
      o.submit = r.submit_ns;
      o.start = r.start_ns;
      o.done = r.done_ns;
      o.ok = r.status == serve::Status::Ok &&
             sameBytes(r.image, in.ref[o.cls][static_cast<std::size_t>(o.scene)]);
      const bool shed = r.status == serve::Status::RejectedFull ||
                        r.status == serve::Status::Expired;
      if (shedFails || !shed) report.count(o.ok);
      if (tracer != nullptr && o.ok)
        recordRequestSpans(*tracer, o, firstReq + static_cast<std::uint32_t>(i),
                           tracer->claim(r.image.data()));
      inflight.pop_front();
    }
  };

  const double intervalNs = 1e9 / rate;
  const std::uint64_t t0 = now() + 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    Outcome& o = w.out[i];
    const auto [cls, scene] = traffic.next();
    o.cls = cls;
    o.scene = scene;
    o.due = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * intervalNs);
    // Spin to the due time, collecting finished responses meanwhile: a
    // timer wake-up on a virtual machine can be milliseconds late.
    while (now() < o.due) collect(false);
    o.call = now();
    inflight.emplace_back(
        i, engine.trySubmit(pipes[cls], in.src[cls][static_cast<std::size_t>(scene)], so));
    depth[i] = engine.queued();
    w.maxQueued = std::max(w.maxQueued, depth[i]);
  }
  collect(true);
  const std::size_t q = std::max<std::size_t>(1, n / 4);
  double head = 0, tail = 0;
  for (std::size_t i = 0; i < q; ++i) {
    head += static_cast<double>(depth[i]);
    tail += static_cast<double>(depth[n - 1 - i]);
  }
  w.backlogGrowth = (tail - head) / static_cast<double>(q);
  reqIds += static_cast<std::uint32_t>(n);

  w.stats = engine.stats() - stats0;
  w.allocs = matAllocationCount() - allocs0;
  w.pool = poolDelta(runtime::poolStats(), pool0);
  w.first = w.out.front().due;
  for (const Outcome& o : w.out) w.last = std::max(w.last, o.done);
  return w;
}

std::vector<double> latencies(const Window& w, int cls = -1) {
  std::vector<double> v;
  for (const Outcome& o : w.out)
    if (o.ok && (cls < 0 || o.cls == cls)) v.push_back(o.latencyMs());
  return v;
}

bool allOk(const Window& w) {
  for (const Outcome& o : w.out)
    if (!o.ok) return false;
  return true;
}

serve::Options engineOptions() {
  serve::Options o;
  o.workers = kWorkers;
  o.queue_capacity = kQueueCapacity;
  return o;
}

// Engine construction to ready: worker spawn, registry + preset setup (on
// the first repetition), and one first call per (class, scene) in use.
double setupOnce(const Inputs& in, std::unique_ptr<serve::Engine>& keep,
                 Report& report) {
  const std::uint64_t t0 = now();
  auto engine = std::make_unique<serve::Engine>(engineOptions());
  std::vector<std::future<serve::Response>> futs;
  std::vector<const Mat*> refs;
  for (int c = 0; c < 2; ++c)
    for (std::size_t s = 0; s < in.src[c].size(); ++s) {
      futs.push_back(engine->submit(kPresets[c], in.src[c][s]));
      refs.push_back(&in.ref[c][s]);
    }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const serve::Response r = futs[i].get();
    report.count(r.status == serve::Status::Ok && sameBytes(r.image, *refs[i]));
  }
  const double s = static_cast<double>(now() - t0) * 1e-9;
  keep = std::move(engine);  // the previous engine shuts down outside the timing
  return s;
}

Inputs makeInputs(const Spec& spec, std::uint32_t seed) {
  Inputs in;
  in.src[kSmall] = scenes(kVga, seed);
  const graph::Graph eg = edgeGraph();
  for (const Mat& m : in.src[kSmall]) {
    Mat r;
    eg.runStaged(m, r);
    in.ref[kSmall].push_back(r);
  }
  if (spec.scanShare > 0) {
    in.src[kLarge] = scenes(kScan, seed);
    for (const Mat& m : in.src[kLarge]) {
      Mat r;
      scannerDirect(m, r, KernelPath::Default);
      in.ref[kLarge].push_back(r);
    }
  }
  return in;
}

// Pipelines identical to the "edge" and "scanner" presets that also stage
// graph/kernel spans for the dispatcher to claim, by output buffer, when it
// collects the response.
void registerTracedPipelines(Tracer& tracer) {
  struct State {
    Tracer* tracer;
    KernelHook hook;
    graph::Graph edge;
    graph::Graph scanner;
  };
  auto st = std::make_shared<State>();
  st->tracer = &tracer;
  st->hook = [t = &tracer](const char* k, std::uint64_t a, std::uint64_t b,
                           std::uint64_t, std::uint64_t) {
    t->stage(std::string("kernel.") + k, a, b);
  };
  st->edge = edgeGraph();
  st->scanner = scannerGraph(&st->hook);
  auto wrap = [st](const graph::Graph State::*g) {
    return [st, g](const Mat& src, Mat& dst, KernelPath p) {
      const std::uint64_t t0 = now();
      ((*st).*g).run(src, dst, p);
      st->tracer->stage("graph.run", t0, now());
      st->tracer->park(dst.data());
    };
  };
  serve::registerPipeline(kTracedPipes[kSmall], wrap(&State::edge));
  serve::registerPipeline(kTracedPipes[kLarge], wrap(&State::scanner));
}

double rung(const Spec& spec, int k) {
  return spec.ladderBase * std::pow(kLadderStep, k);
}

// The ladder's pass/fail boundary: a rung passes when every request of a
// kProbeSeconds window at that rate is served, its p99 (from due time) is
// within the limit, and the queue does not grow (mean depth over the last
// quarter of the window at most kMaxGrowth above the first quarter's).
// Starting from the rung below the fixed rate (which the fixed window has
// just carried), a coarse climb of kCoarse rungs finds the first failure,
// and bisection narrows it to adjacent rungs. From there a 1-up/1-down
// staircase of single rungs runs until the time budget is spent. The result
// is the geometric mean of the rates the staircase tested: the rate a window
// passes about half the time, which averages over host stalls instead of
// hanging on one window. Bisection puts the staircase at the boundary at
// once; starting it from the last coarse pass, a failure caused by one
// stall left it climbing for most of the ladder.
double maxRate(serve::Engine& engine, const Inputs& in, Traffic& traffic,
               const Spec& spec, double seconds, Report& report,
               std::uint32_t& reqIds) {
  auto passes = [&](int k) {
    const Window w = openLoop(engine, in, traffic, rung(spec, k), kProbeSeconds,
                              kPresets, false, report, nullptr, reqIds);
    const double p99 = percentile(latencies(w), 0.99);
    const bool ok = allOk(w) && p99 <= kP99LimitMs &&
                    w.backlogGrowth <= kMaxGrowth;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "ladder rung %d: %.1f rps, p99 %.2f ms, shed %llu, "
                  "backlog growth %.2f -> %s",
                  k, rung(spec, k), p99,
                  static_cast<unsigned long long>(w.stats.rejected_full +
                                                  w.stats.expired),
                  w.backlogGrowth, ok ? "pass" : "fail");
    Report::note(buf);
    return ok;
  };
  const std::uint64_t end = now() + static_cast<std::uint64_t>(seconds * 1e9);
  int k = static_cast<int>(std::floor(std::log(spec.rate / spec.ladderBase) /
                                      std::log(kLadderStep)));
  while (k + kCoarse <= kLadderRungs && passes(k + kCoarse)) k += kCoarse;
  for (int fail = std::min(k + kCoarse, kLadderRungs); fail - k > 1;) {
    const int mid = (k + fail) / 2;
    (passes(mid) ? k : fail) = mid;
  }
  std::vector<double> tested;
  while (now() + static_cast<std::uint64_t>(kProbeSeconds * 1e9) < end) {
    const int r = std::min(k + 1, kLadderRungs);
    const bool ok = passes(r);
    tested.push_back(r);
    k = ok ? r : r - 2;
  }
  if (tested.empty()) tested.push_back(k + 1);
  double sum = 0;
  for (double r : tested) sum += r;
  return spec.ladderBase *
         std::pow(kLadderStep, sum / static_cast<double>(tested.size()));
}

}  // namespace

void runServe(const Options& opt, Report& report) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (opt.workload == s.name) spec = &s;
  if (spec == nullptr) throw std::invalid_argument("unknown serve workload");

  const Inputs in = makeInputs(*spec, opt.seed);
  requireThreads(1 + kWorkers, "open loop (dispatcher + engine workers)");

  std::vector<double> setups;
  std::unique_ptr<serve::Engine> engine;
  double rss = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    setups.push_back(setupOnce(in, engine, report));
    // Peak RSS through the first engine's set-up and first calls. Later, a
    // host stall backs up the queue, and every further engine's workers may
    // touch another malloc arena, so the figure would track the host.
    if (r == 0) rss = peakRssMb();
  }

  Traffic traffic(opt.seed, spec->scanShare);
  std::uint32_t reqIds = 1;
  const double fixedSeconds = opt.trace ? opt.seconds / 2 : opt.seconds * kFixedShare;
  openLoop(*engine, in, traffic, spec->rate, kWarmupSeconds, kPresets, true,
           report, nullptr, reqIds);
  const Window fixed = openLoop(*engine, in, traffic, spec->rate, fixedSeconds,
                                kPresets, true, report, nullptr, reqIds);
  // latency_p50_ms is that of the small (edge) requests: in the mix, the p50
  // over both classes falls at the small class's 70th percentile, on the
  // boundary between the classes, where it jumps with the host's noise.
  const std::vector<double> lat = latencies(fixed);
  const std::vector<double> small = latencies(fixed, kSmall);
  const std::vector<double> per50 = windowPercentiles(small, kSubWindow, 0.5);
  const double p50 = quietMedian(small, kSubWindow);
  std::size_t mismatched = 0;
  for (const Outcome& o : fixed.out)
    mismatched += o.status == serve::Status::Ok && !o.ok;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "fixed rate %.0f rps for %.1f s: %zu requests, %zu served, "
                "%llu rejected, %llu expired, %llu errors, %zu mismatched, "
                "fail_frac %.6f",
                spec->rate, fixedSeconds, fixed.out.size(), lat.size(),
                static_cast<unsigned long long>(fixed.stats.rejected_full),
                static_cast<unsigned long long>(fixed.stats.expired),
                static_cast<unsigned long long>(fixed.stats.errors), mismatched,
                1.0 - static_cast<double>(lat.size()) /
                          static_cast<double>(fixed.out.size()));
  Report::note(buf);

  if (!opt.trace) {
    Report::note("small requests, sub-window p50 ms: " + join(per50));
    const double rate = maxRate(*engine, in, traffic, *spec,
                                opt.seconds * (1 - kFixedShare), report, reqIds);
    double px = 0;
    for (const Outcome& o : fixed.out)
      if (o.ok) px += static_cast<double>(in.src[o.cls][0].total());
    engine.reset();
    std::snprintf(buf, sizeof(buf),
                  "samples: small n=%zu in %zu sub-windows, p50 %.4f ms, "
                  "p99 %.4f ms; all n=%zu, p50 %.4f ms, p99 %.4f ms; ladder "
                  "p99 limit %.0f ms",
                  small.size(), per50.size(), percentile(small, 0.5),
                  percentile(small, 0.99), lat.size(), percentile(lat, 0.5),
                  percentile(lat, 0.99), kP99LimitMs);
    Report::note(buf);
    report.add("latency_p50_ms", p50, "ms");
    report.add("max_rate_rps", rate, "1/s");
    report.add("throughput_mpx_s", px * 1e-6 / (static_cast<double>(fixed.last - fixed.first) * 1e-9), "Mpx/s");
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mb", rss, "MB");
    return;
  }

  // Traced run: the same window again through span-recording copies of the
  // presets; the untraced window above is the overhead baseline.
  Tracer tracer;
  registerTracedPipelines(tracer);
  const Window traced = openLoop(*engine, in, traffic, spec->rate, fixedSeconds,
                                 kTracedPipes, true, report, &tracer, reqIds);
  engine.reset();
  for (const char* name : kTracedPipes) serve::registerPipeline(name, {});

  WindowLayers wl;
  std::vector<double> exec, wait, execSmall, late;
  for (const Outcome& o : traced.out) {
    late.push_back(ms(o.call - o.due));
    if (!o.ok) continue;
    exec.push_back(ms(o.done - o.start));
    wait.push_back(ms(o.start - o.submit));
    if (o.cls == kSmall) execSmall.push_back(ms(o.done - o.start));
  }
  wl.serve["serve.exec_p50_ms"] = percentile(exec, 0.5);
  wl.serve["serve.exec_p99_ms"] = percentile(exec, 0.99);
  wl.serve["serve.queue_wait_p50_ms"] = percentile(wait, 0.5);
  wl.serve["serve.queue_wait_p99_ms"] = percentile(wait, 0.99);
  wl.serve["serve.small_p99_ms"] = percentile(latencies(traced, kSmall), 0.99);
  wl.serve["serve.large_p50_ms"] = percentile(latencies(traced, kLarge), 0.5);
  wl.serve["serve.rejected_full"] = static_cast<double>(traced.stats.rejected_full);
  wl.serve["serve.expired"] = static_cast<double>(traced.stats.expired);
  wl.serve["serve.errors"] = static_cast<double>(traced.stats.errors);
  wl.serve["serve.queued_max"] = static_cast<double>(traced.maxQueued);
  wl.execSmallP50Ms = percentile(execSmall, 0.5);
  wl.genLateP99Ms = percentile(late, 0.99);
  wl.images = static_cast<double>(traced.out.size());
  wl.matAllocsPerRequest = static_cast<double>(traced.allocs) / wl.images;
  wl.pool = traced.pool;
  wl.overheadFrac = quietMedian(latencies(traced, kSmall), kSubWindow) / p50 - 1.0;

  ProbeInputs pin;
  pin.chainScenes = &in.src[kSmall];
  pin.scanScenes = spec->scanShare > 0 ? &in.src[kLarge] : &in.src[kSmall];
  pin.threads = 1;
  const ProbeResult probe = runProbes(pin, report, tracer);
  emitLayers(wl, probe, tracer.rollup("request"), report);
  tracer.writeChromeTrace("perfbench-trace-" + opt.workload + ".json");
}

}  // namespace perfbench
