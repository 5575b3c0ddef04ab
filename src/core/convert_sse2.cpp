// Hand-written SSE2 conversion kernels (the paper's Intel "HAND" arm).
// The kernel bodies live in convert_kernels.inl, written once over
// simd::VecTraits and instantiated here for the 128-bit backend; the
// 32F->16S body keeps the exact structure printed in the paper's Section
// III-A (two 4-float loads, two cvtps->epi32, one packs, one store per
// eight pixels).
#include "core/convert.hpp"
#include "core/convert_detail.hpp"

#if defined(__SSE2__)

#include "simd/vec_sse2.hpp"

#include "core/convert_kernels.inl"

namespace simdcv::core::sse2 {

using B = simd::backend::Sse2;

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

}  // namespace simdcv::core::sse2

namespace simdcv::core::detail {
std::size_t cvtScaledSse2(Depth sd, Depth dd, const void* src, void* dst,
                          std::size_t n, double alpha, double beta) {
  return vker::cvtRangeScaled<sse2::B>(sd, dd, src, dst, n, alpha, beta);
}
}  // namespace simdcv::core::detail

#else  // !__SSE2__: keep the symbols, delegate to the scalar path.

namespace simdcv::core::sse2 {
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n) {
  autovec::cvt32f16s(src, dst, n);
}
void cvt32f8u(const float* src, std::uint8_t* dst, std::size_t n) {
  autovec::cvtRange(Depth::F32, Depth::U8, src, dst, n);
}
void cvt8u32f(const std::uint8_t* src, float* dst, std::size_t n) {
  autovec::cvtRange(Depth::U8, Depth::F32, src, dst, n);
}
void cvt16s32f(const std::int16_t* src, float* dst, std::size_t n) {
  autovec::cvtRange(Depth::S16, Depth::F32, src, dst, n);
}
void cvt8u16s(const std::uint8_t* src, std::int16_t* dst, std::size_t n) {
  autovec::cvtRange(Depth::U8, Depth::S16, src, dst, n);
}
void cvt16s8u(const std::int16_t* src, std::uint8_t* dst, std::size_t n) {
  autovec::cvtRange(Depth::S16, Depth::U8, src, dst, n);
}
}  // namespace simdcv::core::sse2

namespace simdcv::core::detail {
std::size_t cvtScaledSse2(Depth, Depth, const void*, void*, std::size_t, double,
                          double) {
  return 0;
}
}  // namespace simdcv::core::detail

#endif
