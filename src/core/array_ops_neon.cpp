// NEON array-op kernels: the width-generic bodies from array_ops_kernels.inl
// at VecTraits<Neon>. The u8 sum reduces through the traits' sadSumU8, the
// pairwise-widening vpaddl ladder. scaleAdd and addWeighted are not
// instantiated: their bodies run in f64 lanes, which NEON's traits lack.
#include "core/array_ops_detail.hpp"

#include "simd/vec_neon.hpp"

#include "core/array_ops_kernels.inl"

namespace simdcv::core::detail::aops_neon {

using B = simd::backend::Neon;

bool binRange(BinOp op, Depth depth, const void* a, const void* b, void* dst,
              std::size_t n) {
  return aops_vker::binRange<B>(op, depth, a, b, dst, n);
}

bool sumRange(Depth d, const void* a, std::size_t n, double& out) {
  return aops_vker::sumRange<B>(d, a, n, out);
}

std::uint64_t sadBlock(const std::uint8_t* a, std::size_t astep,
                       const std::uint8_t* b, std::size_t bstep, int w, int h,
                       std::uint64_t bound) {
  return aops_vker::sadBlock<B>(a, astep, b, bstep, w, h, bound);
}

}  // namespace simdcv::core::detail::aops_neon
