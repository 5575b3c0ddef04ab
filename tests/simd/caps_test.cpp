// simdcv::caps registry behavior under environment overrides. Each TEST
// runs in its own ctest process (gtest_discover_tests), so mutating the
// environment and reinitializing the registry cannot leak across tests in
// a parallel ctest run; we still restore both at scope exit for hygiene.
#include "simd/caps.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using simdcv::KernelPath;
namespace caps = simdcv::caps;

/// Sets (or clears, with nullptr) an env var for the test body, restores the
/// prior value and rebuilds the registry on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
    caps::detail::reinitFromEnvForTest();
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

bool contains(const std::vector<KernelPath>& v, KernelPath p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

TEST(CapsTest, ParseBackendTable) {
  struct Row {
    const char* name;
    KernelPath path;
  };
  static const Row rows[] = {
      {"sse2", KernelPath::Sse2},       {"avx2", KernelPath::Avx2},
      {"avx512", KernelPath::Avx512},   {"neon", KernelPath::Neon},
      {"auto", KernelPath::Auto},       {"scalar-novec", KernelPath::ScalarNoVec},
  };
  for (const Row& r : rows) {
    KernelPath p = KernelPath::Default;
    EXPECT_TRUE(caps::parseBackend(r.name, &p)) << r.name;
    EXPECT_EQ(p, r.path) << r.name;
  }
  KernelPath p = KernelPath::Default;
  EXPECT_FALSE(caps::parseBackend("avx1024", &p));
  EXPECT_FALSE(caps::parseBackend("", &p));
  EXPECT_FALSE(caps::parseBackend("SSE2", &p)) << "names are lowercase";
}

TEST(CapsTest, RegistryIsWidestFirstAndConsistent) {
  const auto& bs = caps::backends();
  ASSERT_EQ(bs.size(), 4u);
  EXPECT_EQ(bs[0].path, KernelPath::Avx512);
  EXPECT_EQ(bs[1].path, KernelPath::Avx2);
  EXPECT_EQ(bs[2].path, KernelPath::Sse2);
  EXPECT_EQ(bs[3].path, KernelPath::Neon);
  int prev_bits = 1 << 30;
  for (const auto& b : bs) {
    EXPECT_LE(b.vector_bits, prev_bits) << b.name;
    prev_bits = b.vector_bits;
    EXPECT_STREQ(caps::info(b.path).name, b.name);
    // reason explains exactly the non-selectable state.
    EXPECT_EQ(b.reason.empty(), b.selectable()) << b.name;
    EXPECT_EQ(caps::selectable(b.path), b.selectable()) << b.name;
  }
}

TEST(CapsTest, ScalarPathsAlwaysSelectable) {
  EXPECT_TRUE(caps::selectable(KernelPath::ScalarNoVec));
  EXPECT_TRUE(caps::selectable(KernelPath::Auto));
  EXPECT_TRUE(caps::selectable(KernelPath::Default));
}

TEST(CapsTest, AvailablePathsShape) {
  const auto paths = caps::availablePaths();
  ASSERT_GE(paths.size(), 2u);
  EXPECT_EQ(paths[0], KernelPath::ScalarNoVec);
  EXPECT_EQ(paths[1], KernelPath::Auto);
  const auto hand = caps::handPaths();
  EXPECT_EQ(paths.size(), 2u + hand.size());
  for (KernelPath p : hand) {
    EXPECT_TRUE(caps::selectable(p)) << simdcv::toString(p);
    EXPECT_TRUE(contains(paths, p)) << simdcv::toString(p);
  }
  // best() is the widest selectable hand backend, or Auto when none is.
  if (hand.empty()) {
    EXPECT_EQ(caps::best(), KernelPath::Auto);
  } else {
    EXPECT_EQ(caps::best(), hand.front());
  }
}

TEST(CapsTest, DisableMasksAllHandBackends) {
  ScopedEnv disable("SIMDCV_DISABLE_BACKENDS", "avx512,avx2,sse2,neon");
  ScopedEnv force("SIMDCV_FORCE_BACKEND", nullptr);
  caps::detail::reinitFromEnvForTest();

  EXPECT_TRUE(caps::handPaths().empty());
  const auto paths = caps::availablePaths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], KernelPath::ScalarNoVec);
  EXPECT_EQ(paths[1], KernelPath::Auto);
  EXPECT_EQ(caps::best(), KernelPath::Auto);
  for (const auto& b : caps::backends()) {
    EXPECT_FALSE(b.enabled) << b.name;
    EXPECT_FALSE(b.selectable()) << b.name;
    if (b.compiled && b.cpu_supported) {
      EXPECT_NE(b.reason.find("SIMDCV_DISABLE_BACKENDS"), std::string::npos)
          << b.name << ": " << b.reason;
    }
  }
}

TEST(CapsTest, DisableSingleBackendKeepsOthers) {
  ScopedEnv disable("SIMDCV_DISABLE_BACKENDS", "sse2");
  ScopedEnv force("SIMDCV_FORCE_BACKEND", nullptr);
  caps::detail::reinitFromEnvForTest();

  EXPECT_FALSE(caps::selectable(KernelPath::Sse2));
  EXPECT_FALSE(contains(caps::handPaths(), KernelPath::Sse2));
  // The other backends' gates are unchanged by the mask.
  for (const auto& b : caps::backends()) {
    if (b.path == KernelPath::Sse2) continue;
    EXPECT_TRUE(b.enabled) << b.name;
    EXPECT_EQ(b.selectable(), b.compiled && b.cpu_supported) << b.name;
  }
}

TEST(CapsTest, UnknownDisableTokensAreIgnored) {
  ScopedEnv disable("SIMDCV_DISABLE_BACKENDS", "bogus,,mmx");
  ScopedEnv force("SIMDCV_FORCE_BACKEND", nullptr);
  caps::detail::reinitFromEnvForTest();
  for (const auto& b : caps::backends()) EXPECT_TRUE(b.enabled) << b.name;
}

TEST(CapsTest, ForceBackendSelectsWhenSelectable) {
  // sse2 (x86) / neon (arm): the paper-baseline backend is always compiled
  // and supported, so forcing it must stick.
  const KernelPath base =
#if defined(__x86_64__) || defined(__i386__)
      KernelPath::Sse2;
  const char* base_name = "sse2";
#else
      KernelPath::Neon;
  const char* base_name = "neon";
#endif
  ScopedEnv disable("SIMDCV_DISABLE_BACKENDS", nullptr);
  ScopedEnv force("SIMDCV_FORCE_BACKEND", base_name);
  caps::detail::reinitFromEnvForTest();
  EXPECT_EQ(caps::forcedBackend(), base);
  EXPECT_EQ(simdcv::preferredPath(), base);
}

TEST(CapsTest, ForceUnknownOrMaskedFallsThrough) {
  {
    ScopedEnv disable("SIMDCV_DISABLE_BACKENDS", nullptr);
    ScopedEnv force("SIMDCV_FORCE_BACKEND", "nonsense");
    caps::detail::reinitFromEnvForTest();
    EXPECT_EQ(caps::forcedBackend(), KernelPath::Default);
  }
  {
    // Forcing a backend the same environment disables must not select it.
#if defined(__x86_64__) || defined(__i386__)
    const char* base_name = "sse2";
#else
    const char* base_name = "neon";
#endif
    ScopedEnv disable("SIMDCV_DISABLE_BACKENDS", base_name);
    ScopedEnv force("SIMDCV_FORCE_BACKEND", base_name);
    caps::detail::reinitFromEnvForTest();
    EXPECT_EQ(caps::forcedBackend(), KernelPath::Default);
  }
}

// KernelPath::Default resolves to the widest selectable backend the host
// runs natively; masking wider backends steps it down the x86 chain, and
// with every x86 backend masked it is Auto, never the emulated NEON.
TEST(CapsTest, DefaultIsWidestNativeBackend) {
  ScopedEnv force("SIMDCV_FORCE_BACKEND", nullptr);
  {
    ScopedEnv disable("SIMDCV_DISABLE_BACKENDS", nullptr);
    caps::detail::reinitFromEnvForTest();
    EXPECT_EQ(simdcv::resolvePath(KernelPath::Default), caps::best());
#if defined(__x86_64__) || defined(__i386__)
    const auto hand = caps::handPaths();
    ASSERT_FALSE(hand.empty());
    EXPECT_EQ(caps::best(), hand.front());
#else
    EXPECT_EQ(caps::best(), simdcv::cpuFeatures().neon ? KernelPath::Neon
                                                       : KernelPath::Auto);
#endif
  }
#if defined(__x86_64__) || defined(__i386__)
  const bool avx2 = caps::info(KernelPath::Avx2).compiled &&
                    caps::info(KernelPath::Avx2).cpu_supported;
  const struct {
    const char* mask;
    KernelPath want;  // resolvePath(Default)
  } cases[] = {
      {"avx512", avx2 ? KernelPath::Avx2 : KernelPath::Sse2},
      {"avx512,avx2", KernelPath::Sse2},
      {"avx512,avx2,sse2", KernelPath::Auto},
  };
  for (const auto& c : cases) {
    ScopedEnv disable("SIMDCV_DISABLE_BACKENDS", c.mask);
    caps::detail::reinitFromEnvForTest();
    EXPECT_EQ(caps::best(), c.want) << c.mask;
    EXPECT_EQ(simdcv::preferredPath(), c.want) << c.mask;
    EXPECT_EQ(simdcv::resolvePath(KernelPath::Default), c.want) << c.mask;
  }
#endif
}

}  // namespace
