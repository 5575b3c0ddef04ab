// CPU feature detection and kernel-path resolution.
#include "simd/features.hpp"

#include <gtest/gtest.h>

#include "simd/caps.hpp"

namespace simdcv {
namespace {

TEST(CpuFeatures, DetectionIsStableAndSane) {
  const CpuFeatures& a = cpuFeatures();
  const CpuFeatures& b = cpuFeatures();
  EXPECT_EQ(&a, &b);  // cached singleton
  EXPECT_GE(a.logical_cpus, 1);
#if defined(__x86_64__)
  EXPECT_TRUE(a.sse2);  // x86-64 baseline guarantees SSE2
  EXPECT_FALSE(a.vendor.empty());
  EXPECT_TRUE(a.neon_emulated);
  EXPECT_FALSE(a.neon);
#endif
}

TEST(KernelPath, ToStringCoversAll) {
  EXPECT_STREQ(toString(KernelPath::Auto), "auto");
  EXPECT_STREQ(toString(KernelPath::Sse2), "sse2");
  EXPECT_STREQ(toString(KernelPath::Neon), "neon");
  EXPECT_STREQ(toString(KernelPath::ScalarNoVec), "scalar-novec");
  EXPECT_STREQ(toString(KernelPath::Default), "default");
}

TEST(KernelPath, ScalarPathsAlwaysAvailable) {
  EXPECT_TRUE(pathAvailable(KernelPath::Auto));
  EXPECT_TRUE(pathAvailable(KernelPath::ScalarNoVec));
  EXPECT_TRUE(pathAvailable(KernelPath::Default));
}

TEST(KernelPath, NeonAvailableViaEmulation) {
  EXPECT_TRUE(pathAvailable(KernelPath::Neon));
}

TEST(KernelPath, UseOptimizedTogglesDefault) {
  setUseOptimized(true);
  const KernelPath opt = resolvePath(KernelPath::Default);
  EXPECT_NE(opt, KernelPath::Auto);  // some HAND path exists on any host we test
  setUseOptimized(false);
  EXPECT_EQ(resolvePath(KernelPath::Default), KernelPath::Auto);
  setUseOptimized(true);
}

TEST(KernelPath, PreferredPathOverride) {
  setPreferredPath(KernelPath::Neon);
  EXPECT_EQ(preferredPath(), KernelPath::Neon);
  EXPECT_EQ(resolvePath(KernelPath::Default), KernelPath::Neon);
  setPreferredPath(KernelPath::Default);  // restore
#if defined(__x86_64__)
  // Without an override, the widest selectable x86 backend: handPaths()
  // lists the widest first, and emulated NEON never counts.
  KernelPath widest = KernelPath::Auto;
  for (KernelPath p : caps::handPaths())
    if (p != KernelPath::Neon) {
      widest = p;
      break;
    }
  EXPECT_EQ(preferredPath(), widest);
#endif
}

TEST(KernelPath, ExplicitRequestPassesThrough) {
  EXPECT_EQ(resolvePath(KernelPath::Sse2),
            pathAvailable(KernelPath::Sse2) ? KernelPath::Sse2 : KernelPath::Auto);
  EXPECT_EQ(resolvePath(KernelPath::ScalarNoVec), KernelPath::ScalarNoVec);
}

}  // namespace
}  // namespace simdcv
