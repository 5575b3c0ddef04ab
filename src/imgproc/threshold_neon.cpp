// NEON threshold kernels (paper "HAND" arm, ARM): the width-generic bodies
// from threshold_kernels.inl instantiated at VecTraits<Neon> (emulated on
// non-ARM hosts).
#include "imgproc/threshold.hpp"

#include "simd/vec_neon.hpp"

#include "imgproc/threshold_kernels.inl"

namespace simdcv::imgproc::neon {

using B = simd::backend::Neon;

void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type) {
  vker::threshU8<B>(src, dst, n, thresh, maxval, type);
}
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type) {
  vker::threshS16<B>(src, dst, n, thresh, maxval, type);
}
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type) {
  vker::threshF32<B>(src, dst, n, thresh, maxval, type);
}

}  // namespace simdcv::imgproc::neon
