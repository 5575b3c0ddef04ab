// Steady state of Graph::run: after warm-up, repeated runs at one geometry
// into a reused dst make no heap allocation — no Mat buffer, no scratch
// arena refill and no call to the global operator new, which this file
// replaces to count calls (the replacement covers the whole test binary;
// only the calls inside the measured loop are compared). Covers the fused
// factory graphs, a staged graph with opaque stages (its intermediates are
// graph-owned) and every serve preset called through its PipelineFn.
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
#include "serve/serve.hpp"

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

// Runs `call` (src -> dst) twice to warm up — dst's storage, a staged
// graph's intermediate set, the thread's arena, lazily built statics — then
// ten more times, and expects none of the ten to allocate.
template <typename Call>
void expectSteadyState(const std::string& where, const Mat& src, Call call) {
  Mat dst;
  call(src, dst);
  call(src, dst);
  const std::uint64_t mats = matAllocationCount();
  const std::uint64_t refills = core::ScratchArena::forThread().refills();
  const std::uint64_t news = g_newCalls.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) call(src, dst);
  const std::uint64_t matGrowth = matAllocationCount() - mats;
  const std::uint64_t refillGrowth =
      core::ScratchArena::forThread().refills() - refills;
  const std::uint64_t newCalls =
      g_newCalls.load(std::memory_order_relaxed) - news;
  EXPECT_EQ(matGrowth, 0u) << where;
  EXPECT_EQ(refillGrowth, 0u) << where;
  EXPECT_EQ(newCalls, 0u) << where;
}

const std::vector<std::pair<int, int>> kGeometries = {{48, 64}, {480, 640}};

std::string at(const std::string& name, int rows, int cols) {
  return name + " " + std::to_string(cols) + "x" + std::to_string(rows);
}

TEST(GraphSteadyState, RepeatedRunsMakeNoHeapAllocation) {
  const int savedThreads = runtime::getNumThreads();
  runtime::setNumThreads(1);
  std::vector<testing::NamedGraph> graphs = testing::factoryGraphs();
  graphs.push_back(
      {"scanner-shaped", testing::makeScannerShapedGraph(), Depth::U8});
  for (const auto& [name, g, depth] : graphs) {
    for (const auto& [rows, cols] : kGeometries) {
      const Mat src = testing::randomMat(rows, cols, depth, 41);
      expectSteadyState(at(name, rows, cols), src,
                        [&g = g](const Mat& s, Mat& d) { g.run(s, d); });
    }
  }
  runtime::setNumThreads(savedThreads);
}

TEST(GraphSteadyState, ServePresetsMakeNoHeapAllocation) {
  const int savedThreads = runtime::getNumThreads();
  runtime::setNumThreads(1);
  for (const std::string& name : serve::pipelineNames()) {
    const serve::PipelineFn fn = serve::pipelineFn(name);
    for (const auto& [rows, cols] : kGeometries) {
      const Mat src = testing::randomMat(rows, cols, Depth::U8, 43);
      expectSteadyState(at(name, rows, cols), src,
                        [&fn](const Mat& s, Mat& d) {
                          fn(s, d, KernelPath::Default);
                        });
    }
  }
  runtime::setNumThreads(savedThreads);
}

}  // namespace
}  // namespace simdcv::graph
