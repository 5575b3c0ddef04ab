// Steady state of Graph::run: after warm-up, repeated runs at one geometry
// into a reused dst make no heap allocation — no Mat buffer, no scratch
// arena refill and no call to the global operator new, which this file
// replaces to count calls (the replacement covers the whole test binary;
// only the calls inside the measured loop are compared).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/mat.hpp"
#include "core/scratch.hpp"
#include "graph/graph.hpp"
#include "runtime/thread_pool.hpp"

#include "graph_test_support.hpp"

namespace {
std::atomic<std::uint64_t> g_newCalls{0};
}  // namespace

void* operator new(std::size_t n) {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace simdcv::graph {
namespace {

TEST(GraphSteadyState, RepeatedRunsMakeNoHeapAllocation) {
  const int savedThreads = runtime::getNumThreads();
  runtime::setNumThreads(1);
  for (const auto& [name, g, depth] : testing::factoryGraphs()) {
    for (const auto& [rows, cols] :
         std::vector<std::pair<int, int>>{{48, 64}, {480, 640}}) {
      const Mat src = testing::randomMat(rows, cols, depth, 41);
      Mat dst;
      // Warm-up: dst's storage, the thread's arena, lazily built statics.
      g.run(src, dst);
      g.run(src, dst);
      const std::uint64_t mats = matAllocationCount();
      const std::uint64_t refills = core::ScratchArena::forThread().refills();
      const std::uint64_t news = g_newCalls.load(std::memory_order_relaxed);
      for (int i = 0; i < 10; ++i) g.run(src, dst);
      const std::uint64_t matGrowth = matAllocationCount() - mats;
      const std::uint64_t refillGrowth =
          core::ScratchArena::forThread().refills() - refills;
      const std::uint64_t newCalls =
          g_newCalls.load(std::memory_order_relaxed) - news;
      const std::string where =
          name + " " + std::to_string(cols) + "x" + std::to_string(rows);
      EXPECT_EQ(matGrowth, 0u) << where;
      EXPECT_EQ(refillGrowth, 0u) << where;
      EXPECT_EQ(newCalls, 0u) << where;
    }
  }
  runtime::setNumThreads(savedThreads);
}

}  // namespace
}  // namespace simdcv::graph
