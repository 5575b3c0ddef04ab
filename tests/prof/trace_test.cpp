// simdcv::prof behaviour tests (compiled-in leg, SIMDCV_ENABLE_TRACE=ON):
// span capture and aggregation, parallel_for/pool event attribution across
// worker threads, ring wraparound semantics, snapshot determinism, chrome
// trace JSON shape, harness/span clock agreement, and the perf_event
// graceful-fallback contract. The compile-out leg lives in
// trace_compiled_out_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "imgproc/edge_detail.hpp"
#include "simdcv.hpp"

namespace simdcv {
namespace {

static_assert(prof::kCompiledIn,
              "trace_test.cpp builds only in the SIMDCV_ENABLE_TRACE=ON leg");

// Every test starts from a quiet, clean profiler and leaves it disabled.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::setEnabled(false);
    prof::reset();
  }
  void TearDown() override {
    prof::setEnabled(false);
    prof::setHwCountersEnabled(false);
    prof::reset();
    runtime::setNumThreads(1);
  }
};

const prof::KernelStat* findKernel(const prof::Snapshot& s,
                                   const std::string& name) {
  for (const auto& k : s.kernels)
    if (k.name == name) return &k;
  return nullptr;
}
// The result points into `s`: a temporary snapshot would leave it dangling.
const prof::KernelStat* findKernel(prof::Snapshot&& s,
                                   const std::string& name) = delete;

std::uint64_t spinNs(std::uint64_t ns) {
  const std::uint64_t t0 = prof::nowNs();
  std::uint64_t t;
  while ((t = prof::nowNs()) - t0 < ns) {
  }
  return t - t0;
}

TEST_F(ProfTest, DisabledRecordsNothing) {
  ASSERT_FALSE(prof::enabled());
  {
    SIMDCV_TRACE_SCOPE("off.span", prof::kNoPath, 42);
    prof::instant("off.instant");
    prof::addSample("off.sample", KernelPath::Auto, 100, 10);
  }
  const prof::Snapshot s = prof::snapshot();
  EXPECT_EQ(s.total_spans, 0u);
  EXPECT_EQ(findKernel(s, "off.span"), nullptr);
  EXPECT_EQ(findKernel(s, "off.instant"), nullptr);
  EXPECT_EQ(findKernel(s, "off.sample"), nullptr);
}

TEST_F(ProfTest, SpanAggregation) {
  prof::setEnabled(true);
  for (int i = 0; i < 10; ++i) {
    SIMDCV_TRACE_SCOPE("agg.span", KernelPath::Auto, 1000);
    spinNs(2000);
  }
  const prof::Snapshot s = prof::snapshot();
  const prof::KernelStat* k = findKernel(s, "agg.span");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->count, 10u);
  EXPECT_EQ(k->bytes, 10000u);
  EXPECT_GE(k->min_ns, 2000u);
  EXPECT_GE(k->total_ns, 20000u);
  EXPECT_GE(k->max_ns, k->min_ns);
  EXPECT_GE(k->p99_ns, k->min_ns);
  EXPECT_LE(k->p99_ns, k->max_ns);
  EXPECT_NEAR(k->mean_ns, static_cast<double>(k->total_ns) / 10.0, 0.5);
  EXPECT_GT(k->gbps, 0.0);
  EXPECT_EQ(k->pathLabel(), std::string(toString(KernelPath::Auto)));
}

TEST_F(ProfTest, AddSampleAndInstant) {
  prof::setEnabled(true);
  prof::addSample("sample.kernel", KernelPath::Sse2, 5000, 4096);
  prof::addSample("sample.kernel", KernelPath::Sse2, 7000, 4096);
  prof::instant("sample.instant");
  const prof::Snapshot s = prof::snapshot();
  const prof::KernelStat* k = findKernel(s, "sample.kernel");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->count, 2u);
  EXPECT_EQ(k->total_ns, 12000u);
  EXPECT_EQ(k->bytes, 8192u);
  const prof::KernelStat* i = findKernel(s, "sample.instant");
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(i->count, 1u);
  // Instants are not spans.
  EXPECT_EQ(s.total_spans, 2u);
}

// A public kernel run through parallel_for with a worker pool: the kernel
// span lands on the caller, band spans on every participating thread, and
// pool.task events account for the worker-executed bands.
TEST_F(ProfTest, ParallelForAttributesBandsAndPoolWork) {
  runtime::setNumThreads(4);
  runtime::warmupPool();
  Mat src(2048, 2048, U8C1);
  src.setTo(77);
  Mat dst;
  imgproc::threshold(src, dst, 128.0, 255.0, imgproc::ThresholdType::Binary);

  prof::reset();
  prof::setEnabled(true);
  imgproc::threshold(src, dst, 128.0, 255.0, imgproc::ThresholdType::Binary);
  // Quiesce: a worker's pool.task span commits after the fork/join latch
  // releases the caller, so join the workers before counting.
  runtime::shutdownPool();
  prof::setEnabled(false);

  const prof::Snapshot s = prof::snapshot();
  const prof::KernelStat* thr = findKernel(s, "threshold");
  ASSERT_NE(thr, nullptr);
  EXPECT_EQ(thr->count, 1u);
  EXPECT_EQ(thr->bytes, 2u * 2048u * 2048u);

  const prof::KernelStat* band = findKernel(s, "parallel_for.band");
  ASSERT_NE(band, nullptr) << "2048x2048 u8 threshold must fork at 4 threads";
  EXPECT_GE(band->count, 2u);
  // caller band + one band per worker-executed pool task
  EXPECT_EQ(band->count, s.pool.tasks + 1);
  EXPECT_GE(s.threads, 2u);
  // The kernel span must enclose at least the caller's band work.
  EXPECT_GE(thr->total_ns, band->min_ns);
}

TEST_F(ProfTest, SnapshotDeterministicAcrossRuns) {
  runtime::setNumThreads(4);
  runtime::warmupPool();
  Mat src(2048, 2048, U8C1);
  src.setTo(19);
  Mat dst;
  imgproc::threshold(src, dst, 99.0, 255.0, imgproc::ThresholdType::Binary);

  auto workload = [&] {
    prof::reset();
    prof::setEnabled(true);
    for (int i = 0; i < 5; ++i)
      imgproc::threshold(src, dst, 99.0, 255.0,
                         imgproc::ThresholdType::Binary);
    prof::setEnabled(false);
    return prof::snapshot();
  };
  const prof::Snapshot a = workload();
  const prof::Snapshot b = workload();

  const prof::KernelStat* ta = findKernel(a, "threshold");
  const prof::KernelStat* tb = findKernel(b, "threshold");
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  // Counts and byte totals are exact invariants of the workload, independent
  // of scheduling; run-to-run only the timings may differ.
  EXPECT_EQ(ta->count, tb->count);
  EXPECT_EQ(ta->bytes, tb->bytes);
  EXPECT_EQ(ta->count, 5u);
  const prof::KernelStat* ba = findKernel(a, "parallel_for.band");
  const prof::KernelStat* bb = findKernel(b, "parallel_for.band");
  ASSERT_NE(ba, nullptr);
  ASSERT_NE(bb, nullptr);
  EXPECT_EQ(ba->count, bb->count);
}

// Wraparound loses raw events only: aggregates keep exact counts, and the
// dropped-event counter reports the overwrites. A fresh thread gets a ring
// at the (shrunken) capacity configured before it first records.
TEST_F(ProfTest, RingWraparoundKeepsAggregates) {
  const std::size_t oldCap = prof::ringCapacity();
  prof::setRingCapacity(16);
  EXPECT_EQ(prof::ringCapacity(), 16u);
  prof::setEnabled(true);
  std::thread recorder([] {
    for (int i = 0; i < 100; ++i)
      prof::addSample("wrap.test", KernelPath::Auto, 10, 1);
  });
  recorder.join();
  prof::setEnabled(false);
  const prof::Snapshot s = prof::snapshot();
  const prof::KernelStat* k = findKernel(s, "wrap.test");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->count, 100u);  // statistics never dropped
  EXPECT_EQ(k->bytes, 100u);
  EXPECT_GE(s.dropped_events, 100u - 16u);  // raw events were overwritten
  prof::setRingCapacity(oldCap);
}

TEST_F(ProfTest, SetRingCapacityClampsAndRounds) {
  const std::size_t oldCap = prof::ringCapacity();
  prof::setRingCapacity(1);
  EXPECT_EQ(prof::ringCapacity(), 16u);  // floor
  prof::setRingCapacity(1000);
  EXPECT_EQ(prof::ringCapacity(), 1024u);  // next power of two
  prof::setRingCapacity(oldCap);
}

// The harness Timer and trace spans read the same clock: a span around a
// timed busy-wait must agree with the Timer within 1%. Preemption between
// the Timer reads and the span boundaries can stretch one window but not
// the other on a loaded host, so retry until an undisturbed window lands.
TEST_F(ProfTest, HarnessTimerAgreesWithSpanClock) {
  double timerSec = 0.0, spanSec = 0.0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    prof::setEnabled(true);
    prof::reset();
    bench::Timer timer;
    timer.start();
    {
      SIMDCV_TRACE_SCOPE("clock.agree");
      spinNs(20'000'000);  // 20 ms
    }
    timerSec = timer.stop();
    prof::setEnabled(false);
    const prof::Snapshot s = prof::snapshot();
    const prof::KernelStat* k = findKernel(s, "clock.agree");
    ASSERT_NE(k, nullptr);
    spanSec = static_cast<double>(k->total_ns) * 1e-9;
    ASSERT_GT(spanSec, 0.0);
    // The Timer window strictly contains the span window, so timer >= span;
    // both read prof::nowNs(), so they agree to the enter/exit cost.
    ASSERT_GE(timerSec, spanSec * 0.999);
    if (timerSec - spanSec <= 0.01 * timerSec) break;
  }
  EXPECT_NEAR(timerSec, spanSec, 0.01 * timerSec);
}

// Minimal JSON syntax walker (objects/arrays/strings/numbers/literals) —
// enough to prove the chrome trace is well-formed without a JSON library.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : s_(text) {}
  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST_F(ProfTest, ChromeTraceIsWellFormedJson) {
  prof::setEnabled(true);
  {
    SIMDCV_TRACE_SCOPE("json.kernel", KernelPath::Sse2, 1024);
    spinNs(10'000);
  }
  prof::instant("json.instant");
  {
    // Name with JSON-hostile characters must be escaped, not corrupt output.
    SIMDCV_TRACE_SCOPE("json.\"quoted\\name\"");
  }
  prof::setEnabled(false);

  const std::string path =
      ::testing::TempDir() + "simdcv_prof_trace_test.json";
  ASSERT_TRUE(prof::writeChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::remove(path.c_str());

  EXPECT_TRUE(JsonCursor(text).valid()) << "not valid JSON:\n" << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"json.kernel\""), std::string::npos);
  EXPECT_NE(text.find("\"json.instant\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
}

TEST_F(ProfTest, WriteChromeTraceFailsCleanlyOnBadPath) {
  EXPECT_FALSE(prof::writeChromeTrace("/nonexistent-dir/трейс/x.json"));
}

TEST_F(ProfTest, SummaryTextAndCsvContainKernels) {
  prof::setEnabled(true);
  prof::addSample("fmt.kernel", KernelPath::Neon, 1000, 2048);
  prof::setEnabled(false);
  const prof::Snapshot s = prof::snapshot();
  std::ostringstream text;
  prof::writeSummary(text, s);
  EXPECT_NE(text.str().find("fmt.kernel"), std::string::npos);
  EXPECT_NE(text.str().find("pool:"), std::string::npos);
  std::ostringstream csv;
  prof::writeSummaryCsv(csv, s);
  EXPECT_NE(csv.str().find("kernel,path,calls"), std::string::npos);
  EXPECT_NE(csv.str().find("fmt.kernel,"), std::string::npos);
  // Prefix filtering drops non-matching kernels.
  std::ostringstream filtered;
  prof::writeSummary(filtered, s, "no.such.prefix");
  EXPECT_EQ(filtered.str().find("fmt.kernel"), std::string::npos);
}

// The graph executor attributes per-stage time via addSample: with tracing
// on, a fused graph run must produce one graph.fused span plus a sample for
// every fused node label and every row pass (conv groups and windowed
// Morph/FxGaussian/FxSobel nodes), and the stage times must sum to no more
// than the span total (they are disjoint bracketed sub-intervals of it).
TEST_F(ProfTest, FusedEdgeEmitsStageBreakdown) {
  Mat src(256, 512, U8C1);
  src.setTo(0);
  for (int r = 64; r < 192; ++r)
    std::memset(src.ptr<std::uint8_t>(r) + 128, 200, 256);
  const std::vector<std::pair<const char*, graph::Graph>> graphs = {
      {"edge", graph::makeEdgeGraph(Depth::U8, 100.0, 3,
                                    imgproc::BorderType::Reflect101)},
      {"fxedge", graph::makeFxEdgeGraph(5, 1.2, 3, 80.0,
                                        imgproc::BorderType::Reflect101)},
      {"morphgrad", graph::makeMorphGradientGraph(5, 1.2, 5, 5)},
  };
  for (const auto& [what, g] : graphs) {
    SCOPED_TRACE(what);
    Mat dst;
    g.runFused(src, dst);  // warm scratch untraced

    prof::reset();
    prof::setEnabled(true);
    g.runFused(src, dst);
    prof::setEnabled(false);

    const prof::Snapshot s = prof::snapshot();
    const prof::KernelStat* fused = findKernel(s, "graph.fused");
    ASSERT_NE(fused, nullptr);
    EXPECT_EQ(fused->count, 1u);
    std::uint64_t stageSum = 0;
    for (graph::NodeId id = 1; id < g.numNodes(); ++id) {
      const graph::detail::Node& n = g.node(id);
      const prof::KernelStat* k = findKernel(s, n.label);
      ASSERT_NE(k, nullptr) << n.label;
      EXPECT_GE(k->count, 1u) << n.label;
      stageSum += k->total_ns;
      // The row pass of a conv group is sampled once, under its leader.
      if (const prof::KernelStat* row = findKernel(s, n.rowLabel))
        stageSum += row->total_ns;
      const bool windowed = n.kind == graph::NodeKind::Morph ||
                            n.kind == graph::NodeKind::FxGaussian ||
                            n.kind == graph::NodeKind::FxSobel;
      if (windowed) {
        EXPECT_NE(findKernel(s, n.rowLabel), nullptr) << n.label;
      }
    }
    EXPECT_NE(findKernel(s, g.node(1).rowLabel), nullptr);
    EXPECT_GT(stageSum, 0u);
    EXPECT_LE(stageSum, fused->total_ns);
  }
}

// ---- perf_event graceful fallback ------------------------------------------

TEST_F(ProfTest, PerfCountersForcedUnavailableFallBackCleanly) {
  prof::detail::forceHwUnavailableForTest(true);
  EXPECT_FALSE(prof::hwCountersUsable());
  EXPECT_FALSE(prof::hwCountersUnavailableReason().empty());
  {
    prof::PerfCounters probe;
    EXPECT_FALSE(probe.available());
    EXPECT_FALSE(probe.unavailableReason().empty());
    const prof::HwCounters c = probe.read();
    EXPECT_EQ(c.cycles, 0u);
    EXPECT_EQ(c.instructions, 0u);
    EXPECT_EQ(c.cache_misses, 0u);
  }
  // Spans must keep recording (timestamps only) with hw requested but
  // unavailable — the graceful-degradation contract.
  prof::setHwCountersEnabled(true);
  prof::setEnabled(true);
  {
    SIMDCV_TRACE_SCOPE("hw.fallback", KernelPath::Auto, 64);
    spinNs(5'000);
  }
  prof::setEnabled(false);
  prof::setHwCountersEnabled(false);
  prof::detail::forceHwUnavailableForTest(false);
  const prof::Snapshot s = prof::snapshot();
  const prof::KernelStat* k = findKernel(s, "hw.fallback");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->count, 1u);
  EXPECT_GE(k->total_ns, 5'000u);
  EXPECT_EQ(k->cycles, 0u);
  EXPECT_EQ(k->instructions, 0u);
}

TEST_F(ProfTest, PerfCountersLiveWhenHostAllows) {
  if (!prof::hwCountersUsable())
    GTEST_SKIP() << "perf_event unavailable here: "
                 << prof::hwCountersUnavailableReason();
  prof::setHwCountersEnabled(true);
  prof::setEnabled(true);
  {
    SIMDCV_TRACE_SCOPE("hw.live", KernelPath::Auto, 0);
    volatile double x = 1.0;
    for (int i = 0; i < 100000; ++i) x = x * 1.0000001 + 0.5;
  }
  prof::setEnabled(false);
  prof::setHwCountersEnabled(false);
  const prof::Snapshot s = prof::snapshot();
  const prof::KernelStat* k = findKernel(s, "hw.live");
  ASSERT_NE(k, nullptr);
  EXPECT_GT(k->instructions, 100000u);  // at least one instr per iteration
  EXPECT_GT(k->cycles, 0u);
}

TEST_F(ProfTest, GradientMagnitudeBytesMatchRowHelper) {
  // The trace accounting and the parallel_for fork heuristic must price the
  // same traffic: rows * magnitudeRowBytes (two s16 gradient reads + one u8
  // write per element). Before the shared helper the fork decision priced
  // only the 2*n*sizeof(int16) inputs and disagreed with the trace.
  constexpr int kRows = 17, kCols = 33;
  Mat gx(kRows, kCols, S16C1), gy(kRows, kCols, S16C1), mag;
  for (int r = 0; r < kRows; ++r)
    for (int c = 0; c < kCols; ++c) {
      gx.ptr<std::int16_t>(r)[c] = static_cast<std::int16_t>(r - c);
      gy.ptr<std::int16_t>(r)[c] = static_cast<std::int16_t>(c);
    }
  prof::setEnabled(true);
  imgproc::gradientMagnitude(gx, gy, mag);
  prof::setEnabled(false);
  const prof::Snapshot s = prof::snapshot();
  const prof::KernelStat* k = findKernel(s, "gradientMagnitude");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->bytes,
            kRows * imgproc::detail::magnitudeRowBytes(kCols));
  EXPECT_EQ(k->bytes,
            std::uint64_t(kRows) * kCols * (2 * sizeof(std::int16_t) + 1));
}

TEST_F(ProfTest, ResetClearsEverything) {
  prof::setEnabled(true);
  prof::addSample("reset.kernel", KernelPath::Auto, 100, 1);
  prof::reset();
  prof::setEnabled(false);
  const prof::Snapshot s = prof::snapshot();
  EXPECT_EQ(findKernel(s, "reset.kernel"), nullptr);
  EXPECT_EQ(s.total_spans, 0u);
  EXPECT_EQ(s.dropped_events, 0u);
}

}  // namespace
}  // namespace simdcv
