// AVX-512 fixed-point workers: the width-generic bodies at 512 bits — 32
// pixels per 16-bit lane op. Integer arithmetic is exact under the engine's
// wrap-free contract, so bit-exactness is automatic. Sole -mavx512* TU of
// this family (compiled -ffp-contract=off like every avx512 TU);
// runtime-guarded by simdcv::caps.
#include "imgproc/fixedpoint.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)

#include "simd/vec_avx512.hpp"

#include "imgproc/fixedpoint_kernels.inl"

namespace simdcv::imgproc::fx_avx512 {

using B = simd::backend::Avx512;

void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize) {
  fx_vker::rowConvU8<B>(padded, out, width, k, ksize);
}
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize) {
  fx_vker::colConvU8<B>(rows, out, width, k, ksize);
}
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize) {
  fx_vker::rowConvS16<B>(padded, out, width, k, ksize);
}
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize) {
  fx_vker::colConvS16<B>(rows, out, width, k, ksize);
}

void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder) {
  fx_vker::bgr2grayU8<B>(bgr, gray, n, rgbOrder);
}
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy) {
  fx_vker::vblendU16<B>(r0, r1, dst, n, wy);
}

}  // namespace simdcv::imgproc::fx_avx512

#else

namespace simdcv::imgproc::fx_avx512 {
void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize) {
  fx_avx2::rowConvU8(padded, out, width, k, ksize);
}
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize) {
  fx_avx2::colConvU8(rows, out, width, k, ksize);
}
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize) {
  fx_avx2::rowConvS16(padded, out, width, k, ksize);
}
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize) {
  fx_avx2::colConvS16(rows, out, width, k, ksize);
}
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder) {
  fx_avx2::bgr2grayU8(bgr, gray, n, rgbOrder);
}
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy) {
  fx_avx2::vblendU16(r0, r1, dst, n, wy);
}
}  // namespace simdcv::imgproc::fx_avx512

#endif
