#include "simd/caps.hpp"

#include <utility>

#include "platform/env.hpp"

namespace simdcv::caps {

namespace {

constexpr const char* kForceVar = "SIMDCV_FORCE_BACKEND";
constexpr const char* kDisableVar = "SIMDCV_DISABLE_BACKENDS";

bool isHandPath(KernelPath p) noexcept {
  return p == KernelPath::Sse2 || p == KernelPath::Avx2 ||
         p == KernelPath::Avx512 || p == KernelPath::Neon;
}

bool compiledFor(KernelPath p) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  constexpr bool x86 = true;
#else
  constexpr bool x86 = false;
#endif
  switch (p) {
    case KernelPath::Sse2:
    case KernelPath::Avx2:
      // The x86 build always compiles the sse2/avx2 TUs (the whole build is
      // -msse2; each family has its sole -mavx2 TU).
      return x86;
    case KernelPath::Avx512:
#if defined(SIMDCV_COMPILED_AVX512)
      return true;
#else
      return false;
#endif
    case KernelPath::Neon:
      return true;  // native on ARM, emulation layer elsewhere
    default:
      return false;
  }
}

bool cpuSupports(KernelPath p) noexcept {
  const CpuFeatures& f = cpuFeatures();
  switch (p) {
    case KernelPath::Sse2: return f.sse2;
    case KernelPath::Avx2: return f.avx2;
    case KernelPath::Avx512:
      return f.avx512f && f.avx512bw && f.avx512dq && f.avx512vl && f.os_zmm;
    case KernelPath::Neon: return f.neon || f.neon_emulated;
    default: return false;
  }
}

std::string cpuReason(KernelPath p) {
  if (p == KernelPath::Avx512) {
    const CpuFeatures& f = cpuFeatures();
    if (!(f.avx512f && f.avx512bw && f.avx512dq && f.avx512vl))
      return "CPU lacks AVX-512F/BW/DQ/VL";
    return "OS does not preserve zmm/opmask state (XGETBV)";
  }
  return std::string("CPU lacks ") + toString(p);
}

struct Registry {
  std::vector<BackendInfo> backends;
  KernelPath forced = KernelPath::Default;
};

Registry buildRegistry() {
  Registry r;
  // Widest first; this order is the degrade chain and check iteration
  // order.
  const struct {
    KernelPath path;
    int bits;
  } known[] = {
      {KernelPath::Avx512, 512},
      {KernelPath::Avx2, 256},
      {KernelPath::Sse2, 128},
      {KernelPath::Neon, 128},
  };
  for (const auto& k : known) {
    BackendInfo b;
    b.path = k.path;
    b.name = toString(k.path);
    b.vector_bits = k.bits;
    b.compiled = compiledFor(k.path);
    b.cpu_supported = cpuSupports(k.path);
    r.backends.push_back(std::move(b));
  }

  for (const std::string& token : platform::envTokenList(kDisableVar)) {
    KernelPath p = KernelPath::Default;
    if (!parseBackend(token, &p) || !isHandPath(p)) {
      platform::warnIgnoredToken(kDisableVar, token,
                                 "unknown backend; want avx512, avx2, sse2 "
                                 "or neon");
      continue;
    }
    for (BackendInfo& b : r.backends)
      if (b.path == p) b.enabled = false;
  }

  for (BackendInfo& b : r.backends) {
    if (!b.compiled)
      b.reason = "not compiled into this binary";
    else if (!b.cpu_supported)
      b.reason = cpuReason(b.path);
    else if (!b.enabled)
      b.reason = std::string("disabled via ") + kDisableVar;
  }

  const std::string force = platform::envToken(kForceVar);
  if (!force.empty()) {
    KernelPath p = KernelPath::Default;
    if (!parseBackend(force, &p)) {
      platform::warnIgnoredToken(kForceVar, force,
                                 "unknown backend; want avx512, avx2, sse2, "
                                 "neon, auto or scalar-novec");
    } else if (isHandPath(p)) {
      const BackendInfo* bi = nullptr;
      for (const BackendInfo& b : r.backends)
        if (b.path == p) bi = &b;
      if (bi != nullptr && bi->selectable())
        r.forced = p;
      else
        platform::warnIgnoredToken(kForceVar, force,
                                   bi != nullptr && !bi->reason.empty()
                                       ? bi->reason.c_str()
                                       : "backend not selectable");
    } else {
      r.forced = p;  // auto / scalar-novec force the scalar arms
    }
  }
  return r;
}

Registry& registry() {
  static Registry r = buildRegistry();
  return r;
}

}  // namespace

const std::vector<BackendInfo>& backends() { return registry().backends; }

const BackendInfo& info(KernelPath path) {
  for (const BackendInfo& b : registry().backends)
    if (b.path == path) return b;
  // Scalar paths have no gates; hand back a synthetic always-on entry so
  // callers can treat every path uniformly.
  static const BackendInfo scalar = [] {
    BackendInfo b;
    b.path = KernelPath::Auto;
    b.name = "auto";
    b.vector_bits = 0;
    b.compiled = true;
    b.cpu_supported = true;
    b.enabled = true;
    return b;
  }();
  return scalar;
}

bool selectable(KernelPath path) noexcept {
  if (!isHandPath(path)) return true;  // scalar arms always run
  for (const BackendInfo& b : registry().backends)
    if (b.path == path) return b.selectable();
  return false;
}

std::vector<KernelPath> availablePaths() {
  std::vector<KernelPath> out{KernelPath::ScalarNoVec, KernelPath::Auto};
  for (const BackendInfo& b : registry().backends)
    if (b.selectable()) out.push_back(b.path);
  return out;
}

std::vector<KernelPath> handPaths() {
  std::vector<KernelPath> out;
  for (const BackendInfo& b : registry().backends)
    if (b.selectable()) out.push_back(b.path);
  return out;
}

KernelPath best() noexcept {
  const bool nativeNeon = cpuFeatures().neon;
  for (const BackendInfo& b : registry().backends)
    if (b.selectable() && (b.path != KernelPath::Neon || nativeNeon))
      return b.path;
  return KernelPath::Auto;
}

bool parseBackend(const std::string& name, KernelPath* out) noexcept {
  const std::pair<const char*, KernelPath> table[] = {
      {"sse2", KernelPath::Sse2},
      {"avx2", KernelPath::Avx2},
      {"avx512", KernelPath::Avx512},
      {"neon", KernelPath::Neon},
      {"auto", KernelPath::Auto},
      {"scalar-novec", KernelPath::ScalarNoVec},
      {"scalar", KernelPath::ScalarNoVec},
  };
  for (const auto& [n, p] : table) {
    if (name == n) {
      *out = p;
      return true;
    }
  }
  return false;
}

KernelPath forcedBackend() noexcept { return registry().forced; }

namespace detail {

void reinitFromEnvForTest() { registry() = buildRegistry(); }

}  // namespace detail

}  // namespace simdcv::caps
