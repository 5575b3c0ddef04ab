// AVX2 fixed-point workers: the width-generic bodies at 256 bits — 16
// pixels per 16-bit lane op. Same wrap-free contract as the SSE2 arm
// (sum(k) == 256 u8 / 255*sum|kx|*sum|ky| <= 32767 s16, asserted by the
// engine), so all arithmetic is exact and bit-identical to the scalar
// reference. Sole -mavx2 TU of this family; execution is runtime-guarded.
#include "imgproc/fixedpoint.hpp"

#if defined(__AVX2__)

#include "simd/vec_avx2.hpp"

#include "imgproc/fixedpoint_kernels.inl"

namespace simdcv::imgproc::fx_avx2 {

using B = simd::backend::Avx2;

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

}  // namespace simdcv::imgproc::fx_avx2

#else

namespace simdcv::imgproc::fx_avx2 {
void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize) {
  fx_sse2::rowConvU8(padded, out, width, k, ksize);
}
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize) {
  fx_sse2::colConvU8(rows, out, width, k, ksize);
}
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize) {
  fx_sse2::rowConvS16(padded, out, width, k, ksize);
}
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize) {
  fx_sse2::colConvS16(rows, out, width, k, ksize);
}
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder) {
  fx_sse2::bgr2grayU8(bgr, gray, n, rgbOrder);
}
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy) {
  fx_sse2::vblendU16(r0, r1, dst, n, wy);
}
}  // namespace simdcv::imgproc::fx_avx2

#endif
