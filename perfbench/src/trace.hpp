// The benchmark's own spans: recorded around each call it makes into serve,
// graph, the kernels and the runtime, kept in memory, written out as a
// chrome-trace JSON at exit, and rolled up into per-layer self time.
//
// A span's layer is its name up to the first '.' ("serve.exec" -> serve).
// Spans of one request (or one batch image) share `req`. Self time is a
// span's duration minus its children's; the root span's own self time is
// the unattributed remainder: time inside the request that no layer span
// covers (dispatch gaps, output checks, benchmark bookkeeping).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0: a root
  std::uint32_t req = 0;     ///< request / image the span belongs to
  std::uint32_t lane = 0;    ///< chrome-trace row
};

class Tracer {
 public:
  std::uint32_t newId() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// Record a finished span (thread-safe). Returns its id (assigned if 0).
  std::uint32_t record(Span s);

  /// Worker-side spans whose request is not known on the recording thread:
  /// stage() appends to the calling thread's pending list, park() files the
  /// list under `key` (the output buffer a served response carries), and
  /// claim() hands it to whoever later holds the response.
  void stage(std::string name, std::uint64_t start, std::uint64_t end);
  void park(const void* key);
  std::vector<Span> claim(const void* key);

  struct Rollup {
    std::size_t roots = 0;
    std::map<std::string, double> self_ms;  ///< per layer, mean per root
    double unattributed_ms = 0;             ///< mean per root
    double total_ms = 0;                    ///< mean root duration
  };
  /// Self time by layer over every root span named `rootName` and its
  /// descendants.
  Rollup rollup(const std::string& rootName) const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  bool writeChromeTrace(const std::string& path) const;

 private:
  std::atomic<std::uint32_t> next_{1};
  mutable std::mutex mu_;  // guards spans_ and parked_
  std::vector<Span> spans_;
  std::unordered_map<const void*, std::vector<Span>> parked_;
};

/// The trace lane of the calling thread (small, stable per thread).
std::uint32_t threadLane();

/// Times one scope and records it as a span on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::uint32_t parent = 0,
             std::uint32_t req = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_;
  std::uint32_t req_;
  std::uint64_t start_;
};

}  // namespace perfbench
