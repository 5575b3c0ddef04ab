// Per-thread event rings + incremental aggregation behind simdcv::prof.
//
// Threading model: each thread that records gets its own ring + aggregate
// table, guarded by a per-ring mutex that is uncontended on the hot path
// (only snapshot()/reset() ever lock another thread's ring). Aggregates are
// folded at commit time — count/total/min/max/bytes plus a 64-bucket log2
// histogram for p99 — so ring wraparound loses only raw events, never
// statistics, and snapshot() is deterministic for a quiesced process.
#include "prof/prof.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#else
#include <chrono>
#endif

#include "platform/env.hpp"
#include "prof/export_internal.hpp"
#include "prof/perf_counters.hpp"

namespace simdcv::prof {

std::uint64_t nowNs() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

namespace detail {

#if SIMDCV_ENABLE_TRACE
std::atomic_bool g_enabled{false};
#endif

namespace {

std::atomic_bool g_hw_requested{false};
std::atomic<std::size_t> g_ring_capacity{1u << 14};

struct Event {
  const char* name;
  std::uint64_t t0, t1, bytes;
  std::uint64_t cycles, instructions, cache_misses;
  std::uint8_t path;
  std::uint8_t kind;  // 0 = span, 1 = instant
};

struct AggKey {
  const char* name;
  std::uint8_t path;
  bool operator==(const AggKey& o) const noexcept {
    return name == o.name && path == o.path;
  }
};
struct AggKeyHash {
  std::size_t operator()(const AggKey& k) const noexcept {
    return std::hash<const void*>()(k.name) ^ (std::size_t(k.path) * 0x9e3779b9u);
  }
};

// log2 duration bucket: 0 for 0 ns, otherwise bit_width(ns) (1..64).
// Bucket b covers [2^(b-1), 2^b - 1] ns.
inline unsigned durBucket(std::uint64_t ns) noexcept {
  return ns == 0 ? 0u : static_cast<unsigned>(std::bit_width(ns));
}

struct Agg {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = ~0ull;
  std::uint64_t max_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cycles = 0, instructions = 0, cache_misses = 0;
  std::uint8_t kind = 0;
  std::uint32_t hist[65] = {};
};

struct ThreadRing {
  std::mutex mu;
  std::vector<Event> ring;  // power-of-two capacity, fixed at creation
  std::uint64_t written = 0;
  std::unordered_map<AggKey, Agg, AggKeyHash> agg;
  std::uint32_t tid = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::uint32_t next_tid = 1;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: rings may outlive main
  return *r;
}

ThreadRing& myRing() {
  thread_local std::shared_ptr<ThreadRing> tls;
  if (!tls) {
    auto r = std::make_shared<ThreadRing>();
    r->ring.resize(g_ring_capacity.load(std::memory_order_relaxed));
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    r->tid = reg.next_tid++;
    reg.rings.push_back(r);
    tls = std::move(r);
  }
  return *tls;
}

void commitEvent(const char* name, std::uint8_t path, std::uint64_t bytes,
                 std::uint64_t t0, std::uint64_t t1, std::uint64_t cycles,
                 std::uint64_t instructions, std::uint64_t cache_misses,
                 std::uint8_t kind) noexcept {
  ThreadRing& r = myRing();
  std::lock_guard<std::mutex> lk(r.mu);
  const std::size_t cap = r.ring.size();
  Event& e = r.ring[static_cast<std::size_t>(r.written) & (cap - 1)];
  e = Event{name, t0, t1, bytes, cycles, instructions, cache_misses, path, kind};
  ++r.written;
  Agg& a = r.agg[AggKey{name, path}];
  const std::uint64_t d = t1 - t0;
  ++a.count;
  a.total_ns += d;
  a.min_ns = std::min(a.min_ns, d);
  a.max_ns = std::max(a.max_ns, d);
  a.bytes += bytes;
  a.cycles += cycles;
  a.instructions += instructions;
  a.cache_misses += cache_misses;
  a.kind = kind;
  ++a.hist[durBucket(d)];
}

// Read-locked copy of the registered ring pointers.
std::vector<std::shared_ptr<ThreadRing>> allRings() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  return reg.rings;
}

}  // namespace

void commitSpan(const char* name, std::uint8_t path, std::uint64_t bytes,
                std::uint64_t t0, std::uint64_t t1) noexcept {
  commitEvent(name, path, bytes, t0, t1, 0, 0, 0, /*kind=*/0);
}

void commitSpanHw(const char* name, std::uint8_t path, std::uint64_t bytes,
                  std::uint64_t t0, std::uint64_t t1, std::uint64_t cycles,
                  std::uint64_t instructions,
                  std::uint64_t cache_misses) noexcept {
  commitEvent(name, path, bytes, t0, t1, cycles, instructions, cache_misses,
              /*kind=*/0);
}

void commitInstant(const char* name) noexcept {
  const std::uint64_t t = nowNs();
  commitEvent(name, kNoPath, 0, t, t, 0, 0, 0, /*kind=*/1);
}

bool hwRequested() noexcept {
  return g_hw_requested.load(std::memory_order_relaxed);
}

std::vector<RawEvent> retainedEvents() {
  std::vector<RawEvent> out;
  for (const auto& ring : allRings()) {
    std::lock_guard<std::mutex> lk(ring->mu);
    const std::size_t cap = ring->ring.size();
    const std::uint64_t n = std::min<std::uint64_t>(ring->written, cap);
    // Oldest retained event first (ring order is irrelevant to the exporter,
    // which sorts globally, but keeps this deterministic).
    const std::uint64_t first = ring->written - n;
    for (std::uint64_t i = first; i < ring->written; ++i) {
      const Event& e = ring->ring[static_cast<std::size_t>(i) & (cap - 1)];
      out.push_back(RawEvent{e.name, e.t0, e.t1, e.bytes, e.cycles,
                             e.instructions, e.cache_misses, ring->tid, e.path,
                             e.kind});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RawEvent& a, const RawEvent& b) { return a.t0 < b.t0; });
  return out;
}

namespace {

// Honour SIMDCV_TRACE / SIMDCV_TRACE_PERF before main() runs.
struct EnvInit {
  EnvInit() {
    if (kCompiledIn && platform::envFlag("SIMDCV_TRACE", false))
      setEnabled(true);
    if (platform::envFlag("SIMDCV_TRACE_PERF", false))
      g_hw_requested.store(true, std::memory_order_relaxed);
  }
} g_env_init;

}  // namespace

}  // namespace detail

void setEnabled(bool on) noexcept {
#if SIMDCV_ENABLE_TRACE
  detail::g_enabled.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

void setHwCountersEnabled(bool on) noexcept {
  detail::g_hw_requested.store(on, std::memory_order_relaxed);
}

void setRingCapacity(std::size_t events) {
  if (events < 16) events = 16;
  detail::g_ring_capacity.store(std::bit_ceil(events),
                                std::memory_order_relaxed);
}

std::size_t ringCapacity() noexcept {
  return detail::g_ring_capacity.load(std::memory_order_relaxed);
}

#if SIMDCV_ENABLE_TRACE

void TraceScope::begin() noexcept {
  if (detail::hwRequested()) {
    PerfCounters& pc = PerfCounters::forCurrentThread();
    if (pc.available()) {
      const HwCounters c = pc.read();
      c0_[0] = c.cycles;
      c0_[1] = c.instructions;
      c0_[2] = c.cache_misses;
      hw_ = true;
    }
  }
  t0_ = nowNs();
}

void TraceScope::end() noexcept {
  const std::uint64_t t1 = nowNs();
  if (hw_) {
    const HwCounters c = PerfCounters::forCurrentThread().read();
    detail::commitSpanHw(name_, path_, bytes_, t0_, t1, c.cycles - c0_[0],
                         c.instructions - c0_[1], c.cache_misses - c0_[2]);
  } else {
    detail::commitSpan(name_, path_, bytes_, t0_, t1);
  }
}

#endif  // SIMDCV_ENABLE_TRACE

std::string KernelStat::pathLabel() const {
  if (path == kNoPath) return "-";
  if (path > static_cast<std::uint8_t>(KernelPath::Default)) return "?";
  return toString(static_cast<KernelPath>(path));
}

Snapshot snapshot() {
  Snapshot s;
  // Merge per-thread aggregates by (name *string*, path): identical literals
  // in different translation units may have distinct addresses.
  struct MergedAgg {
    std::uint64_t count = 0, total_ns = 0, bytes = 0;
    std::uint64_t min_ns = ~0ull, max_ns = 0;
    std::uint64_t cycles = 0, instructions = 0, cache_misses = 0;
    std::uint8_t kind = 0;
    std::uint64_t hist[65] = {};
  };
  std::map<std::pair<std::string, std::uint8_t>, MergedAgg> merged;
  for (const auto& ring : detail::allRings()) {
    std::lock_guard<std::mutex> lk(ring->mu);
    if (ring->written == 0 && ring->agg.empty()) continue;
    ++s.threads;
    if (ring->written > ring->ring.size())
      s.dropped_events += ring->written - ring->ring.size();
    for (const auto& [key, a] : ring->agg) {
      MergedAgg& m = merged[{std::string(key.name), key.path}];
      m.count += a.count;
      m.total_ns += a.total_ns;
      m.bytes += a.bytes;
      m.min_ns = std::min(m.min_ns, a.min_ns);
      m.max_ns = std::max(m.max_ns, a.max_ns);
      m.cycles += a.cycles;
      m.instructions += a.instructions;
      m.cache_misses += a.cache_misses;
      m.kind = a.kind;
      for (int b = 0; b <= 64; ++b) m.hist[b] += a.hist[b];
    }
  }
  for (const auto& [key, m] : merged) {
    const std::string& name = key.first;
    if (m.kind == 0) s.total_spans += m.count;
    // Pool activity is reported separately, not as kernels.
    if (name.rfind("pool.", 0) == 0) {
      if (name == "pool.task") s.pool.tasks = m.count;
      if (name == "pool.steal") s.pool.steals = m.count;
      if (name == "pool.park") {
        s.pool.parks = m.count;
        s.pool.idle_ns = m.total_ns;
      }
      continue;
    }
    KernelStat k;
    k.name = name;
    k.path = key.second;
    k.count = m.count;
    k.total_ns = m.total_ns;
    k.mean_ns = m.count > 0 ? static_cast<double>(m.total_ns) /
                                  static_cast<double>(m.count)
                            : 0.0;
    k.min_ns = m.min_ns == ~0ull ? 0 : m.min_ns;
    k.max_ns = m.max_ns;
    k.bytes = m.bytes;
    k.gbps = m.total_ns > 0 ? static_cast<double>(m.bytes) /
                                  static_cast<double>(m.total_ns)
                            : 0.0;
    k.cycles = m.cycles;
    k.instructions = m.instructions;
    k.cache_misses = m.cache_misses;
    // p99: upper bound of the first log2 bucket at which the cumulative
    // count reaches 99% (exact to within the bucket's factor-of-two width).
    const std::uint64_t want =
        m.count - m.count / 100;  // ceil-ish: count*0.99 rounded up
    std::uint64_t cum = 0;
    for (int b = 0; b <= 64; ++b) {
      cum += m.hist[b];
      if (cum >= want) {
        k.p99_ns = b == 0 ? 0 : (b >= 64 ? ~0ull : (1ull << b) - 1);
        break;
      }
    }
    k.p99_ns = std::min(k.p99_ns, k.max_ns);
    s.kernels.push_back(std::move(k));
  }
  return s;
}

void reset() {
  for (const auto& ring : detail::allRings()) {
    std::lock_guard<std::mutex> lk(ring->mu);
    ring->written = 0;
    ring->agg.clear();
  }
}

namespace {

void appendRow(std::ostream& os, const KernelStat& k, bool hw) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %-28s %-8s %8llu %10.3f %10.1f %10.1f %9.2f %7.2f",
                k.name.c_str(), k.pathLabel().c_str(),
                static_cast<unsigned long long>(k.count),
                static_cast<double>(k.total_ns) * 1e-6, k.mean_ns * 1e-3,
                static_cast<double>(k.p99_ns) * 1e-3,
                static_cast<double>(k.bytes) / (1024.0 * 1024.0), k.gbps);
  os << buf;
  if (hw) {
    std::snprintf(buf, sizeof(buf), " %12llu %12llu %10llu",
                  static_cast<unsigned long long>(k.cycles),
                  static_cast<unsigned long long>(k.instructions),
                  static_cast<unsigned long long>(k.cache_misses));
    os << buf;
  }
  os << '\n';
}

bool matchesPrefix(const KernelStat& k, const std::string& prefix) {
  return prefix.empty() || k.name.rfind(prefix, 0) == 0;
}

}  // namespace

void writeSummary(std::ostream& os, const Snapshot& snap,
                  const std::string& prefix) {
  bool hw = false;
  for (const auto& k : snap.kernels)
    if (matchesPrefix(k, prefix) && (k.cycles | k.instructions)) hw = true;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-28s %-8s %8s %10s %10s %10s %9s %7s",
                "kernel", "path", "calls", "total_ms", "mean_us", "p99_us",
                "MB", "GB/s");
  os << "[prof]\n" << buf;
  if (hw) {
    std::snprintf(buf, sizeof(buf), " %12s %12s %10s", "cycles", "instrs",
                  "cache_miss");
    os << buf;
  }
  os << '\n';
  for (const auto& k : snap.kernels)
    if (matchesPrefix(k, prefix)) appendRow(os, k, hw);
  std::snprintf(buf, sizeof(buf),
                "  pool: tasks=%llu steals=%llu parks=%llu idle_ms=%.3f | "
                "spans=%llu dropped_events=%llu threads=%llu\n",
                static_cast<unsigned long long>(snap.pool.tasks),
                static_cast<unsigned long long>(snap.pool.steals),
                static_cast<unsigned long long>(snap.pool.parks),
                static_cast<double>(snap.pool.idle_ns) * 1e-6,
                static_cast<unsigned long long>(snap.total_spans),
                static_cast<unsigned long long>(snap.dropped_events),
                static_cast<unsigned long long>(snap.threads));
  os << buf;
}

void writeSummaryCsv(std::ostream& os, const Snapshot& snap,
                     const std::string& prefix) {
  os << "kernel,path,calls,total_ns,mean_ns,p99_ns,min_ns,max_ns,bytes,gbps,"
        "cycles,instructions,cache_misses\n";
  for (const auto& k : snap.kernels) {
    if (!matchesPrefix(k, prefix)) continue;
    os << k.name << ',' << k.pathLabel() << ',' << k.count << ',' << k.total_ns
       << ',' << k.mean_ns << ',' << k.p99_ns << ',' << k.min_ns << ','
       << k.max_ns << ',' << k.bytes << ',' << k.gbps << ',' << k.cycles << ','
       << k.instructions << ',' << k.cache_misses << '\n';
  }
}

}  // namespace simdcv::prof
