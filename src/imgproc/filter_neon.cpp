// NEON row/column convolution workers (paper "HAND", ARM): the
// width-generic bodies from filter_kernels.inl at VecTraits<Neon>. The
// bodies multiply then add, in the scalar reference's tap order, so the
// results are bit-exact with the AUTO arm as long as the compiler does not
// contract them into fused multiply-adds (see DESIGN.md §15).
#include "imgproc/filter.hpp"

#include "simd/vec_neon.hpp"

#include "imgproc/filter_kernels.inl"

namespace simdcv::imgproc::neon {

using B = simd::backend::Neon;

void rowConv(const float* padded, float* out, int width, const float* k,
             int ksize) {
  vker::rowConv<B>(padded, out, width, k, ksize);
}
void colConv(const float* const* rows, float* out, int width, const float* k,
             int ksize) {
  vker::colConv<B>(rows, out, width, k, ksize);
}

}  // namespace simdcv::imgproc::neon
