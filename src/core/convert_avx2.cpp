// AVX2 conversion kernels — the ISA the paper's Section VI names as future
// work ("extending our experiments to include AVX"). The width-generic
// bodies in convert_kernels.inl are instantiated here at 256 bits; the
// lane-crossing pack fix-ups (vpackssdw operates within 128-bit lanes) live
// inside VecTraits<backend::Avx2>, so the bodies are identical to the SSE2
// instantiation.
//
// Sole -mavx2 TU of this family; callers reach it only after a runtime
// CPUID check (KernelPath::Avx2 resolves to Sse2 on older hardware).
#include "core/convert.hpp"
#include "core/convert_detail.hpp"

#if defined(__AVX2__)

#include "simd/vec_avx2.hpp"

#include "core/convert_kernels.inl"

namespace simdcv::core::avx2 {

using B = simd::backend::Avx2;

void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n) {
  vker::cvt32f16s<B>(src, dst, n);
}
void cvt32f8u(const float* src, std::uint8_t* dst, std::size_t n) {
  vker::cvt32f8u<B>(src, dst, n);
}
void cvt8u32f(const std::uint8_t* src, float* dst, std::size_t n) {
  vker::cvt8u32f<B>(src, dst, n);
}
void cvt16s32f(const std::int16_t* src, float* dst, std::size_t n) {
  vker::cvt16s32f<B>(src, dst, n);
}
void cvt8u16s(const std::uint8_t* src, std::int16_t* dst, std::size_t n) {
  vker::cvt8u16s<B>(src, dst, n);
}
void cvt16s8u(const std::int16_t* src, std::uint8_t* dst, std::size_t n) {
  vker::cvt16s8u<B>(src, dst, n);
}

}  // namespace simdcv::core::avx2

namespace simdcv::core::detail {
std::size_t cvtScaledAvx2(Depth sd, Depth dd, const void* src, void* dst,
                          std::size_t n, double alpha, double beta) {
  return vker::cvtRangeScaled<avx2::B>(sd, dd, src, dst, n, alpha, beta);
}
}  // namespace simdcv::core::detail

#else  // TU built without -mavx2: keep the symbols, delegate to SSE2.

namespace simdcv::core::avx2 {
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n) {
  sse2::cvt32f16s(src, dst, n);
}
void cvt32f8u(const float* src, std::uint8_t* dst, std::size_t n) {
  sse2::cvt32f8u(src, dst, n);
}
void cvt8u32f(const std::uint8_t* src, float* dst, std::size_t n) {
  sse2::cvt8u32f(src, dst, n);
}
void cvt16s32f(const std::int16_t* src, float* dst, std::size_t n) {
  sse2::cvt16s32f(src, dst, n);
}
void cvt8u16s(const std::uint8_t* src, std::int16_t* dst, std::size_t n) {
  sse2::cvt8u16s(src, dst, n);
}
void cvt16s8u(const std::int16_t* src, std::uint8_t* dst, std::size_t n) {
  sse2::cvt16s8u(src, dst, n);
}
}  // namespace simdcv::core::avx2

namespace simdcv::core::detail {
std::size_t cvtScaledAvx2(Depth sd, Depth dd, const void* src, void* dst,
                          std::size_t n, double alpha, double beta) {
  return cvtScaledSse2(sd, dd, src, dst, n, alpha, beta);
}
}  // namespace simdcv::core::detail

#endif
