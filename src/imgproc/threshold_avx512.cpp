// AVX-512 threshold kernels: the width-generic bodies at 512 bits (64
// bytes / 16 floats per iteration); the u8 compare is the native unsigned
// k-mask compare instead of the 0x80-bias trick. Sole -mavx512* TU of this
// family, compiled -ffp-contract=off; runtime-guarded by simdcv::caps.
#include "imgproc/threshold.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)

#include "simd/vec_avx512.hpp"

#include "imgproc/threshold_kernels.inl"

namespace simdcv::imgproc::avx512 {

using B = simd::backend::Avx512;

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

}  // namespace simdcv::imgproc::avx512

#else

namespace simdcv::imgproc::avx512 {
void threshU8(const std::uint8_t* src, std::uint8_t* dst, std::size_t n,
              std::uint8_t thresh, std::uint8_t maxval, ThresholdType type) {
  avx2::threshU8(src, dst, n, thresh, maxval, type);
}
void threshS16(const std::int16_t* src, std::int16_t* dst, std::size_t n,
               std::int16_t thresh, std::int16_t maxval, ThresholdType type) {
  avx2::threshS16(src, dst, n, thresh, maxval, type);
}
void threshF32(const float* src, float* dst, std::size_t n, float thresh,
               float maxval, ThresholdType type) {
  avx2::threshF32(src, dst, n, thresh, maxval, type);
}
}  // namespace simdcv::imgproc::avx512

#endif
