// Shared pieces of the perfbench program: options, the metric report, output
// checking, seeded inputs, the chains under test and small statistics.
//
// Everything here talks to simdcv through its public headers only; the
// benchmark changes no library code and leaves the library's own prof spans
// and tune:: off.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "simdcv.hpp"

namespace perfbench {

using namespace simdcv;

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

inline constexpr Size kVga{640, 480};
inline constexpr Size kScan{1024, 960};
inline constexpr Size k8mpx{3264, 2448};
inline constexpr int kScenes = 5;  ///< scene classes per size, cycled

/// Monotonic nanoseconds: the same clock as serve::Response timestamps.
inline std::uint64_t now() { return prof::nowNs(); }
inline double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Percentile q of each consecutive window of `window` samples (the last
/// window absorbs the remainder; at least one window).
std::vector<double> windowPercentiles(const std::vector<double>& v,
                                      std::size_t window, double q);

/// The lower quartile of the windows' medians: the typical speed over the
/// quieter part of a run. Neighbours on a shared host only ever slow a
/// window down, so this tracks the program, not the host's busy episodes,
/// as long as a quarter of the run's windows are quiet.
double quietMedian(const std::vector<double>& v, std::size_t window);

/// The values with three decimals, space-separated (for the printed lines).
std::string join(const std::vector<double>& v);

/// Logical CPUs of this host: the cap on threads any workload may run.
int hostCpus();

/// Fail the run (throw) when a phase would run more threads than CPUs.
void requireThreads(int threads, const char* phase);

/// The metrics of one run plus the operation counts of the result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Human-readable line on stdout (never the last line).
  static void note(const std::string& text);
  /// One checked operation; `ok` false counts it as failed.
  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Print every metric by name and unit, then the one-line JSON result.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Byte-for-byte equality of two images (geometry, type and every row).
bool sameBytes(const Mat& a, const Mat& b);

/// kScenes seeded u8 scenes at `size`, one per scene class.
std::vector<Mat> scenes(Size size, std::uint32_t seed);

/// A named, frozen pipeline graph.
struct Chain {
  const char* name;
  graph::Graph g;
};

/// The batch cycle: photo, fxedge, morphgrad, edge (make*Graph factories).
std::vector<Chain> batchChains();
/// The "edge" serve preset's graph (same factory and parameters).
graph::Graph edgeGraph();

/// Observer of one public kernel call: kernel name ("gaussian", "median",
/// ...), start/end timestamps, output pixels and computed bytes moved
/// (inputs read + output written, from the image sizes).
using KernelHook = std::function<void(const char* kernel, std::uint64_t start,
                                      std::uint64_t end, std::uint64_t px,
                                      std::uint64_t bytes)>;

/// The "scanner" preset as a direct chain of public calls: medianBlur 3 ->
/// otsuThreshold -> BinaryInv threshold -> morphClose 9x3.
void scannerDirect(const Mat& src, Mat& dst, KernelPath path,
                   const KernelHook* hook = nullptr);

/// The "scanner" preset's graph (three opaque stages), each stage reporting
/// its kernel calls to `hook` (which must outlive the graph) when non-null.
graph::Graph scannerGraph(const KernelHook* hook);

/// Replay a graph's staged schedule as the public kernel calls it is made
/// of, one node at a time, reporting each call to `hook`. The result is
/// byte-identical to g.runStaged (opaque stages run as declared).
void replayStaged(const graph::Graph& g, const Mat& src, Mat& dst,
                  KernelPath path, const KernelHook& hook);

/// Peak resident set size of this process in MB (getrusage).
double peakRssMb();

/// Pool counter delta between two poolStats() snapshots.
runtime::PoolStats poolDelta(const runtime::PoolStats& after,
                             const runtime::PoolStats& before);

}  // namespace perfbench
