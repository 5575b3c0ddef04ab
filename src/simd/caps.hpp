// simdcv::caps — the public capability-query and backend-registry API.
//
// This is the one place that answers "which SIMD backends exist in this
// binary, which can run on this CPU, and which may the dispatcher pick?".
// hostinfo, check:: and the graph executor all consume it instead
// of keeping private hard-coded path lists; KernelPath itself survives as
// the (thin, stable) identifier each backend registers under.
//
// A backend is SELECTABLE when all three gates pass:
//   compiled      the binary contains its -m-flagged TUs (build-time gate;
//                 e.g. SIMDCV_COMPILED_AVX512 from CMake's flag check),
//   cpu_supported runtime detection says the host can execute it (CPUID,
//                 and for AVX-512 also the XGETBV zmm/opmask OS check),
//   enabled       the user did not mask it via SIMDCV_DISABLE_BACKENDS.
// Whichever gate fails first is recorded in BackendInfo::reason, so a
// skipped backend is always explainable (check_all and hostinfo print it).
//
// Environment overrides (parsed once, warn-and-fallback on unknown names —
// see platform/env.hpp):
//   SIMDCV_FORCE_BACKEND=<name>     make preferredPath() resolve to this
//                                   backend instead of best() (ignored,
//                                   with a warning, if unknown or not
//                                   selectable),
//   SIMDCV_DISABLE_BACKENDS=a,b     mask backends by name ("avx512",
//                                   "avx2", "sse2", "neon"); unknown names
//                                   warn and are skipped.
#pragma once

#include <string>
#include <vector>

#include "simd/features.hpp"

namespace simdcv::caps {

/// One registered SIMD backend, with the three selection gates and the
/// first failing gate's explanation.
struct BackendInfo {
  KernelPath path = KernelPath::Auto;
  const char* name = "";     ///< stable lowercase name ("sse2", "avx512", ...)
  int vector_bits = 0;       ///< native register width
  bool compiled = false;     ///< binary contains this backend's TUs
  bool cpu_supported = false;  ///< runtime detection passed
  bool enabled = true;         ///< not masked by SIMDCV_DISABLE_BACKENDS
  std::string reason;  ///< why the backend is not selectable ("" when it is)

  bool selectable() const noexcept {
    return compiled && cpu_supported && enabled;
  }
};

/// All hand-written backends this build knows about, most vector bits first
/// (avx512, avx2, sse2, neon), regardless of selectability.
const std::vector<BackendInfo>& backends();

/// Registry entry for one backend. `path` must be a hand-written backend
/// path; scalar paths have no registry entry.
const BackendInfo& info(KernelPath path);

/// True when the dispatcher may route work to `path` right now
/// (compiled && cpu_supported && enabled). Scalar paths (ScalarNoVec,
/// Auto, Default) are always selectable; they have no gates.
bool selectable(KernelPath path) noexcept;

/// Every path a differential harness should exercise: ScalarNoVec, Auto,
/// then each selectable hand-written backend (check::'s oracle and the
/// bench path axis iterate exactly this).
std::vector<KernelPath> availablePaths();

/// The selectable hand-written backends only, most vector bits first.
std::vector<KernelPath> handPaths();

/// The selectable hand-written backend with the most vector bits that the
/// host runs natively, or Auto when none is. Emulated NEON never counts: on
/// x86 it is scalar code behind the intrinsic names. This is what
/// KernelPath::Default resolves to unless setPreferredPath() or
/// SIMDCV_FORCE_BACKEND says otherwise.
KernelPath best() noexcept;

/// Parse a backend name ("sse2", "avx2", "avx512", "neon" — the values
/// SIMDCV_FORCE_BACKEND / SIMDCV_DISABLE_BACKENDS accept, plus the scalar
/// names "auto" and "scalar-novec"). Returns false on unknown names.
bool parseBackend(const std::string& name, KernelPath* out) noexcept;

/// The SIMDCV_FORCE_BACKEND override if set, valid and selectable;
/// Default otherwise. preferredPath() consults this.
KernelPath forcedBackend() noexcept;

namespace detail {
/// Re-read SIMDCV_FORCE_BACKEND / SIMDCV_DISABLE_BACKENDS and rebuild the
/// registry. Test hook (the registry is otherwise initialized once).
void reinitFromEnvForTest();
}  // namespace detail

}  // namespace simdcv::caps
