// AVX-512 conversion kernels: the same width-generic bodies as the SSE2 and
// AVX2 instantiations, at 512 bits. The four-lane pack reordering lives in
// VecTraits<backend::Avx512>.
//
// Sole -mavx512f/bw/dq/vl TU of this family, compiled -ffp-contract=off
// (AVX-512F implies FMA and GCC would otherwise contract mul+add chains —
// harmless here, load-bearing for the filter family; the flag set is
// uniform across avx512 TUs). Callers reach these kernels only after the
// simdcv::caps runtime check (CPUID + XGETBV zmm state).
#include "core/convert.hpp"
#include "core/convert_detail.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)

#include "simd/vec_avx512.hpp"

#include "core/convert_kernels.inl"

namespace simdcv::core::avx512 {

using B = simd::backend::Avx512;

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

}  // namespace simdcv::core::avx512

namespace simdcv::core::detail {
std::size_t cvtScaledAvx512(Depth sd, Depth dd, const void* src, void* dst,
                            std::size_t n, double alpha, double beta) {
  return vker::cvtRangeScaled<avx512::B>(sd, dd, src, dst, n, alpha, beta);
}
}  // namespace simdcv::core::detail

#else  // toolchain lacks AVX-512: keep the symbols, delegate to AVX2.

namespace simdcv::core::avx512 {
void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n) {
  avx2::cvt32f16s(src, dst, n);
}
void cvt32f8u(const float* src, std::uint8_t* dst, std::size_t n) {
  avx2::cvt32f8u(src, dst, n);
}
void cvt8u32f(const std::uint8_t* src, float* dst, std::size_t n) {
  avx2::cvt8u32f(src, dst, n);
}
void cvt16s32f(const std::int16_t* src, float* dst, std::size_t n) {
  avx2::cvt16s32f(src, dst, n);
}
void cvt8u16s(const std::uint8_t* src, std::int16_t* dst, std::size_t n) {
  avx2::cvt8u16s(src, dst, n);
}
void cvt16s8u(const std::int16_t* src, std::uint8_t* dst, std::size_t n) {
  avx2::cvt16s8u(src, dst, n);
}
}  // namespace simdcv::core::avx512

namespace simdcv::core::detail {
std::size_t cvtScaledAvx512(Depth sd, Depth dd, const void* src, void* dst,
                            std::size_t n, double alpha, double beta) {
  return cvtScaledAvx2(sd, dd, src, dst, n, alpha, beta);
}
}  // namespace simdcv::core::detail

#endif
