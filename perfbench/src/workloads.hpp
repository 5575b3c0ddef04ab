// The three workloads and the per-layer probes of a traced run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// serve-edge-vga / serve-mixed-scan: open loop into a 2-worker Engine.
void runServe(const Options& opt, Report& report);

/// batch-8mpx: closed loop of Graph::run over the batch chains at 8 mpx.
void runBatch(const Options& opt, Report& report);

/// Inputs of the per-layer probes: the chain scenes at the workload's size
/// and the scanner scenes at its size, plus the probe thread count (the
/// workload's own: 1 for the inline serve workers, nproc for batch).
struct ProbeInputs {
  const std::vector<Mat>* chainScenes = nullptr;
  const std::vector<Mat>* scanScenes = nullptr;
  int threads = 1;
};

struct ProbeResult {
  double edgeRunMs = 0;  ///< direct edge-graph run() at the chain size
};

/// graph.*, kernel.*, simd.*, runtime.band_efficiency.* and ceiling.*.
ProbeResult runProbes(const ProbeInputs& in, Report& report, Tracer& tracer);

/// Per-layer metrics the workload's traced window measures. Entries a
/// workload never exercises (serve.* on batch, pool counters on the inline
/// serve workers) stay 0.
struct WindowLayers {
  std::map<std::string, double> serve;  ///< serve.* except overhead_ms
  double execSmallP50Ms = 0;            ///< for serve.overhead_ms
  double genLateP99Ms = 0;
  double matAllocsPerRequest = 0;
  runtime::PoolStats pool;             ///< pool counters over the window
  double images = 1;                    ///< requests / run() calls
  double overheadFrac = 0;              ///< traced vs untraced
};

/// Emit every per-layer metric in BENCHMARK.json order.
void emitLayers(const WindowLayers& w, const ProbeResult& probe,
                const Tracer::Rollup& self, Report& report);

/// Host fingerprint lines (CPU, caches, CPUs, Default path, caps).
void printHost();

}  // namespace perfbench
