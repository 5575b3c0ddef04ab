// AVX-512 array-op kernels: the width-generic bodies at 512 bits, with the
// u8 sum reduced through vpsadbw + reduce_add. Sole -mavx512* TU of this
// family (compiled -ffp-contract=off like every avx512 TU); execution is
// runtime-guarded by simdcv::caps including the XGETBV zmm-state check.
#include "core/array_ops_detail.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)

#include "simd/vec_avx512.hpp"

#include "core/array_ops_kernels.inl"

namespace simdcv::core::detail::aops_avx512 {

using B = simd::backend::Avx512;

bool binRange(BinOp op, Depth depth, const void* a, const void* b, void* dst,
              std::size_t n) {
  return aops_vker::binRange<B>(op, depth, a, b, dst, n);
}

bool sumRange(Depth d, const void* a, std::size_t n, double& out) {
  return aops_vker::sumRange<B>(d, a, n, out);
}

std::size_t scaleRange(Depth d, const void* a, void* dst, std::size_t n,
                       double alpha, double beta) {
  return aops_vker::scaleRange<B>(d, a, dst, n, alpha, beta);
}

std::size_t weightedRange(Depth d, const void* a, const void* b, void* dst,
                          std::size_t n, double alpha, double beta,
                          double gamma) {
  return aops_vker::weightedRange<B>(d, a, b, dst, n, alpha, beta, gamma);
}

std::uint64_t sadBlock(const std::uint8_t* a, std::size_t astep,
                       const std::uint8_t* b, std::size_t bstep, int w, int h,
                       std::uint64_t bound) {
  return aops_vker::sadBlock<B>(a, astep, b, bstep, w, h, bound);
}

}  // namespace simdcv::core::detail::aops_avx512

#else  // toolchain lacks AVX-512: report no hand kernel, caller degrades.

namespace simdcv::core::detail::aops_avx512 {
bool binRange(BinOp, Depth, const void*, const void*, void*, std::size_t) {
  return false;
}
bool sumRange(Depth, const void*, std::size_t, double&) { return false; }
std::size_t scaleRange(Depth, const void*, void*, std::size_t, double,
                       double) {
  return 0;
}
std::size_t weightedRange(Depth, const void*, const void*, void*, std::size_t,
                          double, double, double) {
  return 0;
}
std::uint64_t sadBlock(const std::uint8_t* a, std::size_t astep,
                       const std::uint8_t* b, std::size_t bstep, int w, int h,
                       std::uint64_t bound) {
  return aops_avx2::sadBlock(a, astep, b, bstep, w, h, bound);
}
}  // namespace simdcv::core::detail::aops_avx512

#endif
