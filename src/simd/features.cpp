#include "simd/features.hpp"

#include <atomic>
#include <thread>

#include "simd/caps.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define SIMDCV_HOST_X86 1
#endif

namespace simdcv {

const char* toString(KernelPath path) noexcept {
  switch (path) {
    case KernelPath::ScalarNoVec: return "scalar-novec";
    case KernelPath::Auto: return "auto";
    case KernelPath::Sse2: return "sse2";
    case KernelPath::Neon: return "neon";
    case KernelPath::Avx2: return "avx2";
    case KernelPath::Avx512: return "avx512";
    case KernelPath::Default: return "default";
  }
  return "?";
}

namespace {

#if defined(SIMDCV_HOST_X86)
std::string cpuidVendor() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(0, &eax, &ebx, &ecx, &edx)) return {};
  char v[13] = {};
  // Vendor string is laid out EBX, EDX, ECX.
  for (int i = 0; i < 4; ++i) v[i] = static_cast<char>(ebx >> (8 * i));
  for (int i = 0; i < 4; ++i) v[4 + i] = static_cast<char>(edx >> (8 * i));
  for (int i = 0; i < 4; ++i) v[8 + i] = static_cast<char>(ecx >> (8 * i));
  return v;
}

std::string cpuidBrand() {
  unsigned regs[4] = {};
  if (!__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) ||
      regs[0] < 0x80000004u) {
    return {};
  }
  char brand[49] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
    for (int r = 0; r < 4; ++r)
      for (int b = 0; b < 4; ++b)
        brand[leaf * 16 + r * 4 + b] = static_cast<char>(regs[r] >> (8 * b));
  }
  // Trim leading spaces that Intel pads brand strings with.
  const char* p = brand;
  while (*p == ' ') ++p;
  return p;
}
#endif

CpuFeatures detect() {
  CpuFeatures f;
  f.logical_cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (f.logical_cpus <= 0) f.logical_cpus = 1;
#if defined(SIMDCV_HOST_X86)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.sse2 = (edx >> 26) & 1u;
    f.sse3 = (ecx >> 0) & 1u;
    f.sse41 = (ecx >> 19) & 1u;
    f.sse42 = (ecx >> 20) & 1u;
    f.avx = (ecx >> 28) & 1u;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = (ebx >> 5) & 1u;
    f.avx512f = (ebx >> 16) & 1u;
    f.avx512dq = (ebx >> 17) & 1u;
    f.avx512bw = (ebx >> 30) & 1u;
    f.avx512vl = (ebx >> 31) & 1u;
  }
  // AVX-512 execution additionally needs the OS to context-switch the
  // zmm/opmask register state: OSXSAVE set, then XCR0 bits 1|2 (xmm/ymm)
  // and 5|6|7 (opmask, zmm_hi256, hi16_zmm) all granted.
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) && ((ecx >> 27) & 1u)) {
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    f.os_zmm = (lo & 0xe6u) == 0xe6u;
  }
  f.vendor = cpuidVendor();
  f.brand = cpuidBrand();
  f.neon_emulated = true;  // neon_emu.hpp provides the intrinsics
#elif defined(__ARM_NEON)
  f.neon = true;
  f.vendor = "ARM";
#else
  f.neon_emulated = true;  // scalar emulation works everywhere
#endif
  return f;
}

std::atomic<bool> g_use_optimized{true};

std::atomic<KernelPath> g_preferred{KernelPath::Default};

}  // namespace

const CpuFeatures& cpuFeatures() noexcept {
  static const CpuFeatures f = detect();
  return f;
}

void setUseOptimized(bool enabled) noexcept { g_use_optimized.store(enabled); }
bool useOptimized() noexcept { return g_use_optimized.load(); }

void setPreferredPath(KernelPath path) noexcept { g_preferred.store(path); }

KernelPath preferredPath() noexcept {
  KernelPath p = g_preferred.load();
  if (p != KernelPath::Default) return p;
  // SIMDCV_FORCE_BACKEND overrides the static default (but never an
  // explicit setPreferredPath call, which is a deliberate program choice).
  const KernelPath forced = caps::forcedBackend();
  if (forced != KernelPath::Default) return forced;
  return caps::best();
}

bool pathAvailable(KernelPath path) noexcept {
  switch (path) {
    case KernelPath::ScalarNoVec:
    case KernelPath::Auto:
    case KernelPath::Default:
      return true;
    default:
      // Hand-written backends: compiled + CPU-supported + not disabled,
      // all answered by the caps registry.
      return caps::selectable(path);
  }
}

KernelPath resolvePath(KernelPath requested) noexcept {
  KernelPath p = requested;
  if (p == KernelPath::Default) {
    p = useOptimized() ? preferredPath() : KernelPath::Auto;
  }
  // Degrade through the narrower x86 HAND arms before giving up on
  // intrinsics: Avx512 -> Avx2 -> Sse2 -> Auto, one step per backend that
  // is not selectable.
  if (p == KernelPath::Avx512 && !pathAvailable(p)) p = KernelPath::Avx2;
  if (p == KernelPath::Avx2 && !pathAvailable(p)) p = KernelPath::Sse2;
  if (!pathAvailable(p)) p = KernelPath::Auto;
  return p;
}

}  // namespace simdcv
