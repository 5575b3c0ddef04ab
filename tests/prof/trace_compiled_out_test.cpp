// Compile-out leg (SIMDCV_ENABLE_TRACE=OFF): every span must vanish at
// compile time — TraceScope is an empty type, SIMDCV_TRACE_SCOPE expands to
// a no-op, and the runtime switch is inert. Built and run by the
// trace-off configure in scripts/verify.sh; never part of the default build.
#include <gtest/gtest.h>

#include <type_traits>

#include "simdcv.hpp"

namespace simdcv {
namespace {

static_assert(!prof::kCompiledIn,
              "trace_compiled_out_test.cpp builds only with "
              "SIMDCV_ENABLE_TRACE=OFF");
static_assert(sizeof(prof::TraceScope) == 1,
              "compiled-out TraceScope must carry no state");
static_assert(std::is_empty_v<prof::TraceScope>,
              "compiled-out TraceScope must be an empty type");
static_assert(std::is_trivially_destructible_v<prof::TraceScope>,
              "compiled-out TraceScope must have no side effects");

TEST(ProfCompiledOut, MacroIsANoOpStatement) {
  // Must compile as a plain statement in any context, including an
  // un-braced if — the do/while(0) contract.
  if (prof::enabled())
    SIMDCV_TRACE_SCOPE("gone");
  else
    SIMDCV_TRACE_SCOPE("also.gone", KernelPath::Auto, 123);
  SUCCEED();
}

TEST(ProfCompiledOut, RuntimeSwitchIsInert) {
  prof::setEnabled(true);
  EXPECT_FALSE(prof::enabled());  // compiled out: cannot be enabled
  prof::instant("never.recorded");
  prof::addSample("never.recorded", KernelPath::Auto, 100, 1);
  const prof::Snapshot s = prof::snapshot();
  EXPECT_EQ(s.total_spans, 0u);
  EXPECT_TRUE(s.kernels.empty());
  prof::setEnabled(false);
}

TEST(ProfCompiledOut, InstrumentedKernelsStillWork) {
  prof::setEnabled(true);  // inert, but must not break the kernels
  Mat src(64, 64, U8C1);
  src.setTo(100);
  Mat dst;
  imgproc::threshold(src, dst, 50.0, 255.0, imgproc::ThresholdType::Binary);
  EXPECT_EQ(dst.at<std::uint8_t>(0, 0), 255);
  imgproc::edgeDetect(src, dst, 100.0);
  const prof::Snapshot s = prof::snapshot();
  EXPECT_TRUE(s.kernels.empty());
  prof::setEnabled(false);
}

}  // namespace
}  // namespace simdcv
