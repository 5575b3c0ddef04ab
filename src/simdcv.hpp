// simdcv — single public entry point.
//
// #include "simdcv.hpp" (installed as <simdcv/simdcv.hpp>) pulls in the whole
// public API surface; applications, examples and the bench binaries compile
// against this header alone. The public/internal split:
//
//   public   every header included below — stable signatures, documented in
//            README.md, uniform trailing `KernelPath path = Default`
//   internal *_detail.hpp, *_kernels.inl, *_scalar.inl, simd/vec*.hpp,
//            simd/neon_emu*, prof/export_internal — shared between
//            pipelines and tests, may change without notice
//
// Capability queries go through simdcv::caps (simd/caps.hpp): which
// backends exist in this binary, which the host CPU can run, which the
// environment allows. Enumerating KernelPath values by hand and probing
// each with pathAvailable() still works but is deprecated for that use;
// caps::availablePaths() / caps::handPaths() return the same answer with
// the reasons attached.
//
// Subsystem map (one header per line, same order as the build):
#pragma once

// simd: CPU feature detection, KernelPath selection (Auto/Sse2/Neon/Avx2/
// Avx512/ScalarNoVec), setUseOptimized / setPreferredPath switches, and
// the caps:: backend registry (compiled/cpu_supported/enabled gates).
#include "simd/features.hpp"
#include "simd/caps.hpp"

// core: Mat container + types, saturating casts, element-wise array ops,
// depth conversions, bump-allocator scratch frames.
#include "core/types.hpp"
#include "core/mat.hpp"
#include "core/saturate.hpp"
#include "core/array_ops.hpp"
#include "core/convert.hpp"
#include "core/scratch.hpp"

// runtime: band-parallel parallel_for over a work-stealing pool, with the
// bit-identical 1-vs-N thread guarantee.
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

// imgproc: the paper's kernel set (filters, threshold, edge pipeline) plus
// the image operations the examples, serve presets and related-work
// benchmark (E1) call.
#include "imgproc/border.hpp"
#include "imgproc/kernels.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/threshold.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/canny.hpp"
#include "imgproc/color.hpp"
#include "imgproc/resize.hpp"
#include "imgproc/pyramid.hpp"
#include "imgproc/morphology.hpp"
#include "imgproc/fixedpoint.hpp"
#include "imgproc/median.hpp"
#include "imgproc/histogram.hpp"
#include "imgproc/geometry.hpp"
#include "imgproc/match.hpp"
#include "imgproc/harris.hpp"
#include "imgproc/connected.hpp"

// graph: the pipeline-graph fusion engine — declare a DAG of stages once,
// execute it staged (whole-image kernels) or fused (cache-blocked single-pass
// ring-buffer streaming) with bit-identical results.
#include "graph/graph.hpp"

// io: BMP/PNM image read/write.
#include "io/image_io.hpp"

// platform: host introspection (caches, ISA), the kernel cost catalog, and
// hardened environment-variable parsing.
#include "platform/platform.hpp"
#include "platform/env.hpp"

// serve: the batched image-service engine — bounded MPMC ingress queue,
// request workers with deadlines and drain/abort shutdown, and the
// pipeline-template registry (edge / blur / threshold / scanner presets).
#include "serve/queue.hpp"
#include "serve/serve.hpp"

// prof: tracing spans, per-kernel metrics, chrome-trace export, optional
// perf_event hardware counters.
#include "prof/prof.hpp"
#include "prof/perf_counters.hpp"

// bench: measurement harness + synthetic scene generator (the paper's
// protocol; also the quickest way to get test images).
#include "bench/harness.hpp"
#include "bench/images.hpp"

// check: differential kernel-path checker (oracle vs kernel comparisons).
#include "check/check.hpp"
