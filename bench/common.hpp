// Shared machinery for the table/figure reproduction binaries: measured
// kernel runners (host) and simulated results (platform cost model).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "simdcv.hpp"

namespace simdcv::bench {

/// Host measurement of one paper benchmark kernel at one resolution on one
/// kernel path, following the paper's protocol (images cycled `cycles`
/// times; reported value is the mean over all runs).
struct Measurement {
  Stats stats;
  KernelPath path;
  platform::BenchKernel kernel;
  Size size;
};

Measurement measureKernel(platform::BenchKernel kernel, KernelPath path,
                          Size size, const Protocol& proto);

/// Verbosity from SIMDCV_BENCH_VERBOSE (0 when unset/unparsable):
///   1  measureKernel prints the runtime thread count and pool activity
///      (tasks/steals/parks/unparks) per measurement;
///   2  additionally force-enables prof tracing around each measurement and
///      prints the per-kernel x per-path span summary — for edgeDetect that
///      includes the graph executor's per-stage breakdown
///      (graph.fused.<stage> rows).
int benchVerboseLevel();

/// The KernelPaths benchmarked on the host, in print order. NEON runs
/// through the emulation layer on x86 and is labelled accordingly.
std::vector<KernelPath> benchPaths();

/// Label for a path, marking emulated NEON: "neon(emu)".
std::string pathLabel(KernelPath p);

/// Speedup of HAND (best available native-intent path) over AUTO.
double speedupOf(const Measurement& autoArm, const Measurement& handArm);

/// Print the simulated 10-platform table for a kernel at a size, in the
/// paper's Table II/III layout (AUTO / HAND / Speed-up rows).
void printSimulatedPlatformTable(platform::BenchKernel kernel, Size size);

/// Print model-vs-paper anchor comparison lines for this kernel.
void printAnchorComparison(platform::BenchKernel kernel);

}  // namespace simdcv::bench
