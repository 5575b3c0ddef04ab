// Hand-written SSE2 threshold kernels (paper "HAND" arm, Intel): the
// width-generic bodies from threshold_kernels.inl instantiated at 128 bits.
#include "imgproc/threshold.hpp"

#if defined(__SSE2__)

#include "simd/vec_sse2.hpp"

#include "imgproc/threshold_kernels.inl"

namespace simdcv::imgproc::sse2 {

using B = simd::backend::Sse2;

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

}  // namespace simdcv::imgproc::sse2

#else

namespace simdcv::imgproc::sse2 {
void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type) {
  autovec::threshU8(src, dst, n, thresh, maxval, type);
}
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type) {
  autovec::threshS16(src, dst, n, thresh, maxval, type);
}
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type) {
  autovec::threshF32(src, dst, n, thresh, maxval, type);
}
}  // namespace simdcv::imgproc::sse2

#endif
