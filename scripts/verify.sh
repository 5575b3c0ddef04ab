#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite (which includes the
# `check` label — the differential kernel-path oracle), then the runtime
# subsystem re-run under ThreadSanitizer (the `runtime` ctest label covers
# the thread pool and the 1-vs-N bit-equivalence tests), then the
# differential checker re-run under AddressSanitizer with fixed seeds, so
# every kernel path is exercised on adversarial inputs (saturation
# boundaries, NaN/Inf, ROI strides) with out-of-bounds detection armed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build + full ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo
echo "== VecTraits conformance + caps registry (ctest -L simd) =="
# Per-backend lane invariants, saturating-op boundary tables at the rails,
# pack element order, cvtF32toS32Sat NaN/overflow fixups, scalar tails, and
# the caps:: env-override gates (see DESIGN.md section 15).
ctest --test-dir build -L simd --output-on-failure -j"$(nproc)"

echo
echo "== forced-scalar leg (SIMDCV_DISABLE_BACKENDS masks every hand path) =="
# With all hand backends masked, caps::availablePaths() collapses to
# {scalar-novec, auto}; the differential checker must still run clean and
# the mask must actually have taken (the banner lists the active paths).
SIMDCV_DISABLE_BACKENDS=avx512,avx2,sse2,neon \
  ./build/src/check/check_all --seed=0x5ca1a500 --iters=60 2>&1 \
  | tee build/check_forced_scalar.log
grep -q 'paths: scalar-novec auto$' build/check_forced_scalar.log
! grep -q 'avx2' build/check_forced_scalar.log

echo
echo "== SSE2-default leg (SIMDCV_DISABLE_BACKENDS masks avx512 and avx2) =="
# Default resolves to the widest native backend; with the two wider x86
# backends masked it must land on SSE2 (the banner prints it), and the
# differential checker and its tests must run clean there too.
SIMDCV_DISABLE_BACKENDS=avx512,avx2 \
  ./build/src/check/check_all --seed=0x55e2def0 --iters=60 2>&1 \
  | tee build/check_sse2_default.log
grep -q 'default: sse2$' build/check_sse2_default.log
# The lowered U8 edge graph's SSE2 fixed-point arms against the float chain.
SIMDCV_DISABLE_BACKENDS=avx512,avx2 \
  ./build/src/check/check_all --only=graph.edge-float --seed=0x55e2f10a \
  --iters=60
SIMDCV_DISABLE_BACKENDS=avx512,avx2 \
  ctest --test-dir build -L check --output-on-failure -j"$(nproc)"

echo
echo "== poison-fill leg (every new Mat buffer starts as 0xA5 bytes) =="
# Mat::create leaves new storage uninitialized. This test-only build defines
# SIMDCV_POISON_ALLOC, so every fresh buffer is filled with the poison byte:
# a kernel or graph step that reads an element before writing it diverges
# from the plain build. The check slice must pass and check_all must print
# exactly what the plain build printed for the same seed (0 failures).
cmake -B build-poison -S . \
  -DCMAKE_CXX_FLAGS=-DSIMDCV_POISON_ALLOC=0xA5 \
  -DSIMDCV_BUILD_BENCH=OFF \
  -DSIMDCV_BUILD_EXAMPLES=OFF
cmake --build build-poison -j --target check_all test_check
ctest --test-dir build-poison -L check --output-on-failure -j"$(nproc)"
./build/src/check/check_all --seed=0x9015a5ed --iters=60 \
  > build/check_plain.log 2>&1
./build-poison/src/check/check_all --seed=0x9015a5ed --iters=60 2>&1 \
  | tee build-poison/check_poison.log
diff build/check_plain.log build-poison/check_poison.log
grep -q ' 0 failures$' build-poison/check_poison.log

echo
echo "== runtime tests under ThreadSanitizer =="
cmake -B build-tsan -S . \
  -DSIMDCV_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSIMDCV_BUILD_BENCH=OFF \
  -DSIMDCV_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j --target test_runtime test_prof test_serve \
  test_fixedpt test_morph test_graph
ctest --test-dir build-tsan -L runtime --output-on-failure -j"$(nproc)"

echo
echo "== serving engine under ThreadSanitizer =="
# The `serve` label: the bounded MPMC ingress queue's wraparound/close/drain
# edge cases plus the engine's admission, deadline, and shutdown paths, all
# with real producer/consumer contention (see DESIGN.md, "simdcv::serve").
ctest --test-dir build-tsan -L serve --output-on-failure -j"$(nproc)"

echo
echo "== integer kernel tier under ThreadSanitizer (ctest -L fixedpt/morph) =="
# Both filters band rows across the pool through the shared ring engine and
# re-prime windows at band seams; the cross-path x thread x band identity
# tests assert that their calls fork, so TSan race-checks the per-band
# rings and scratch. (The -L runtime leg above does the same for
# sepFilter2D: ParallelEquivalence.FilterBorderModesAcrossSeams.)
ctest --test-dir build-tsan -L fixedpt --output-on-failure -j"$(nproc)"
ctest --test-dir build-tsan -L morph --output-on-failure -j"$(nproc)"

echo
echo "== pipeline graphs under ThreadSanitizer (ctest -L graph) =="
# The serve presets share static const graphs between workers;
# GraphExec.ConcurrentRunsOfOneGraph runs one graph from four threads at two
# alternating geometries, so TSan race-checks the shared row program, the
# per-band scratch and the per-thread arenas.
ctest --test-dir build-tsan -L graph --output-on-failure -j"$(nproc)"

echo
echo "== differential checker under AddressSanitizer =="
cmake -B build-asan -S . \
  -DSIMDCV_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSIMDCV_BUILD_BENCH=OFF \
  -DSIMDCV_BUILD_EXAMPLES=OFF
cmake --build build-asan -j --target check_all test_check test_io \
  test_fixedpt test_morph test_prof test_runtime
# Fixed seeds: the run must be reproducible in CI; a failure prints a
# one-line reproducer (see DESIGN.md, "simdcv::check").
./build-asan/src/check/check_all --seed=0x51dc5eed --iters=200
./build-asan/src/check/check_all --seed=0xa5a11ced --iters=100
# The edge family again, deeper: edge.detect runs edgeDetect through the
# edge graph, graph.edge diffs its fused schedule against the staged one,
# and graph.edge-float diffs run() against edgeDetectUnfused, the float
# chain it is byte-equal to (its U8 Sobel pair lowers to the exact 16-bit
# engine; see DESIGN.md section 13).
./build-asan/src/check/check_all --only=edge --seed=0xed6ef05e --iters=400
./build-asan/src/check/check_all --only=graph.edge --seed=0xed6ef05e --iters=400
# The graph engine's fused-vs-staged contract across chains, band partitions
# and run()'s schedule choice (see DESIGN.md, "Pipeline graphs"), with ASan
# watching the per-band ring buffers and seam re-priming.
./build-asan/src/check/check_all --only=graph --seed=0x9ed6ef05 --iters=200
# run() vs the staged scalar oracle, deeper: the fuse rule and the pooled
# staged schedule it falls back to, with ASan watching the borrowed
# intermediate sets.
./build-asan/src/check/check_all --only=graph.run --seed=0x7a5ed15b --iters=150
# The integer kernel tier (fixedpt.* under the MaxAbsLsb/Exact tolerance
# policy, morph.* bit-exact, graph.morph-fx through the fused window rings):
# ASan watches the u8/i16 rings, pads, and seam re-priming on adversarial
# geometry (see DESIGN.md section 14).
./build-asan/src/check/check_all --only=fixedpt --seed=0xf18db6ed --iters=250
./build-asan/src/check/check_all --only=morph --seed=0x6b0df00d --iters=250
# The caps.pipeline chained entry (blur -> sobel -> magnitude -> add ->
# threshold -> convert) runs the whole big-five set back to back on every
# registered backend — the AVX-512 arm included where the host allows it —
# with ASan watching the widest loads/stores and tails.
./build-asan/src/check/check_all --only=caps --seed=0xca95f1fe --iters=150
# The double-precision affine arms (addWeighted, scaleAdd, every scaled
# convertTo pair) with hostile coefficients: ASan watches the f64 widening
# loads and the whole-vector/scalar-tail hand-off at ragged row lengths.
./build-asan/src/check/check_all --only=arrayops --seed=0xaff1ae64 --iters=300
./build-asan/src/check/check_all --only=convertTo --seed=0xc0f64a5e --iters=300
# medianBlur, the gray row, resize's vertical blend and the SAD row: one
# VecTraits body per width, at widths around one and two vectors of every
# backend. ASan watches the median's overlapped last vector, the
# deinterleave's 3-vector loads and the blends' tails.
./build-asan/src/check/check_all --only=median --seed=0x3ed1a9b1 --iters=300
./build-asan/src/check/check_all --only=color --seed=0xc0104a5e --iters=300
./build-asan/src/check/check_all --only=resize --seed=0x2e512e00 --iters=300
./build-asan/src/check/check_all --only=match --seed=0x5ad5ad00 --iters=300
ctest --test-dir build-asan -L check --output-on-failure -j"$(nproc)"

echo
echo "== integer kernel tier under AddressSanitizer (ctest -L fixedpt/morph) =="
# Boundary tables, metamorphic algebra, decomposition-vs-oracle, the
# +/-2 LSB tolerance negative control, and the fork-asserting band-identity
# tests, with bounds checking armed on the ring slots and per-band scratch.
ctest --test-dir build-asan -L fixedpt --output-on-failure -j"$(nproc)"
ctest --test-dir build-asan -L morph --output-on-failure -j"$(nproc)"

echo
echo "== band parallelism under AddressSanitizer (ctest -L runtime) =="
# 1-vs-N bit identity of the paper kernels; FilterBorderModesAcrossSeams
# forks sepFilter2D's ring engine over every border and depth pair.
ctest --test-dir build-asan -L runtime --output-on-failure -j"$(nproc)"

echo
echo "== profiler under AddressSanitizer (ctest -L prof) =="
# Snapshots, ring buffers, chrome-trace export and the traced kernels, with
# bounds and lifetime checking armed.
ctest --test-dir build-asan -L prof --output-on-failure -j"$(nproc)"


echo
echo "== pipeline graphs under AddressSanitizer (ctest -L graph) =="
# Builder validation, degenerate geometry (1x1, 1xW, Hx1), all border
# modes, ksize-1 stages, ROI sources, adversarial band heights over every
# factory graph, seeded random DAGs and the no-allocation steady state.
cmake --build build-asan -j --target test_graph
ctest --test-dir build-asan -L graph --output-on-failure -j"$(nproc)"

echo
echo "== serving engine under AddressSanitizer (ctest -L serve) =="
# Staged presets (scanner) reuse their graph's intermediate sets across
# requests and workers: ASan watches every pooled Mat a request inherits.
cmake --build build-asan -j --target test_serve
ctest --test-dir build-asan -L serve --output-on-failure -j"$(nproc)"


echo
echo "== trace-on: check label with live tracing (SIMDCV_TRACE=1) =="
# Tracing recording during every differential-checker test: spans commit on
# every kernel entry, band, and pool event while ASan watches the rings.
SIMDCV_TRACE=1 ctest --test-dir build-asan -L check --output-on-failure \
  -j"$(nproc)"

echo
echo "== trace-off: compile-out leg (SIMDCV_ENABLE_TRACE=OFF) =="
# Spans must vanish at compile time; test_prof in this configure is the
# static-assert + inert-switch suite (trace_compiled_out_test.cpp).
cmake -B build-notrace -S . \
  -DSIMDCV_ENABLE_TRACE=OFF \
  -DSIMDCV_BUILD_BENCH=OFF \
  -DSIMDCV_BUILD_EXAMPLES=OFF
cmake --build build-notrace -j --target test_prof
ctest --test-dir build-notrace -L prof --output-on-failure -j"$(nproc)"

echo
echo "== bench smoke (SIMDCV_BENCH_SMOKE=1: 2 images x 1 cycle) =="
# Run from inside build/ so the smoke CSV/JSON artifacts do not clobber the
# committed full-protocol results at the repo root.
cmake --build build -j --target fig6_edge_speedup
(cd build && SIMDCV_BENCH_SMOKE=1 ./bench/fig6_edge_speedup)
# Traced smoke: per-stage breakdown summary + chrome trace JSON next to the
# CSV (fig6_edge_speedup_trace.json).
(cd build && SIMDCV_TRACE=1 SIMDCV_BENCH_SMOKE=1 ./bench/fig6_edge_speedup)
test -s build/fig6_edge_speedup_trace.json

echo
echo "== A/B verdicts: a recorded pair table (ctest -L bench) =="
# Deterministic negative control for scripts/ab.py, the same-host perf A/B:
# a metric 40% past its bound must read `regression` and be named, one
# exactly at its bound must pass, 8/10 better pairs must not read `gain`,
# and a higher failed share or a malformed table must fail.
ctest --test-dir build -L bench --output-on-failure --no-tests=error

echo
echo "verify: OK"
