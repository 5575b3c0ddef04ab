// CPU feature detection and kernel-path selection.
//
// The library ships three implementations of every hot kernel:
//   - ScalarNoVec : plain C++ compiled with the auto-vectorizer disabled
//                   (baseline for the instruction-count ablation),
//   - Auto        : the same plain C++ compiled at -O3 with the compiler's
//                   auto-vectorizer enabled (the paper's "AUTO" arm),
//   - Sse2 / Neon : hand-written intrinsics (the paper's "HAND" arm).
//
// Path selection happens at run time so a single binary can benchmark all
// arms against each other, exactly as OpenCV's cv::setUseOptimized() does.
#pragma once

#include <cstdint>
#include <string>

namespace simdcv {

/// Which implementation of a kernel to run.
enum class KernelPath : std::uint8_t {
  ScalarNoVec,  ///< scalar source, compiler vectorizer disabled
  Auto,         ///< scalar source, compiler auto-vectorization (paper "AUTO")
  Sse2,         ///< hand-written SSE2 intrinsics (paper "HAND", Intel)
  Neon,         ///< hand-written NEON intrinsics (paper "HAND", ARM);
                ///< runs through the emulation layer on non-ARM hosts
  Avx2,         ///< hand-written AVX2 intrinsics (the paper's future-work
                ///< ISA; falls back to Sse2 kernels where no AVX2 version
                ///< exists)
  Avx512,       ///< hand-written AVX-512 intrinsics (F+BW+DQ+VL; degrades
                ///< to Avx2 then Sse2 where unsupported)
  Default,      ///< resolve via useOptimized() + preferredPath()
};

const char* toString(KernelPath path) noexcept;

/// Static CPU capabilities of the host, detected once via CPUID (x86) or
/// compile-time macros (ARM).
struct CpuFeatures {
  bool sse2 = false;
  bool sse3 = false;
  bool sse41 = false;
  bool sse42 = false;
  bool avx = false;
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512dq = false;
  bool avx512vl = false;
  bool os_zmm = false;      ///< OS preserves zmm/opmask state (XGETBV)
  bool neon = false;        ///< genuine ARM NEON
  bool neon_emulated = false;  ///< NEON intrinsics available via emulation
  std::string vendor;       ///< CPUID vendor string, e.g. "GenuineIntel"
  std::string brand;        ///< CPUID brand string
  int logical_cpus = 1;
};

/// Detected features of the executing host (computed once, cached).
const CpuFeatures& cpuFeatures() noexcept;

/// Global HAND-optimization switch, mirroring cv::setUseOptimized().
/// When false, Default resolves to Auto.
void setUseOptimized(bool enabled) noexcept;
bool useOptimized() noexcept;

/// Preferred HAND path when optimizations are on. Precedence: an explicit
/// setPreferredPath(), then SIMDCV_FORCE_BACKEND, then caps::best() — the
/// selectable backend with the most vector bits the host runs natively
/// (avx512 > avx2 > sse2 on x86, neon on ARM, Auto when none is).
void setPreferredPath(KernelPath path) noexcept;
KernelPath preferredPath() noexcept;

/// Resolve Default into a concrete runnable path; validates that the
/// requested path is selectable on this host (degrading Avx512 -> Avx2 ->
/// Sse2 before falling back to Auto). Every kernel family has an arm at
/// every x86 width, so this is the one path rule.
KernelPath resolvePath(KernelPath requested) noexcept;

/// True if `path` can execute on this host. For the hand-written backends
/// this consults the simdcv::caps registry, so a backend disabled via
/// SIMDCV_DISABLE_BACKENDS reads as unavailable here too.
bool pathAvailable(KernelPath path) noexcept;

}  // namespace simdcv
