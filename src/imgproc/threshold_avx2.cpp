// AVX2 threshold kernels: the width-generic bodies at 256 bits (32 bytes /
// 8 floats per iteration). Sole -mavx2 TU of this family.
#include "imgproc/threshold.hpp"

#if defined(__AVX2__)

#include "simd/vec_avx2.hpp"

#include "imgproc/threshold_kernels.inl"

namespace simdcv::imgproc::avx2 {

using B = simd::backend::Avx2;

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

}  // namespace simdcv::imgproc::avx2

#else

namespace simdcv::imgproc::avx2 {
void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type) {
  sse2::threshU8(src, dst, n, thresh, maxval, type);
}
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type) {
  sse2::threshS16(src, dst, n, thresh, maxval, type);
}
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type) {
  sse2::threshF32(src, dst, n, thresh, maxval, type);
}
}  // namespace simdcv::imgproc::avx2

#endif
