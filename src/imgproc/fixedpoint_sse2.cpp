// Hand-written SSE2 fixed-point workers (paper "HAND", Intel): the
// width-generic bodies from fixedpoint_kernels.inl at 128 bits — 8 pixels
// per 16-bit lane op, twice the lane count of the float engine's 4-wide
// rowConv.
#include "imgproc/fixedpoint.hpp"

#include "imgproc/color.hpp"

#if defined(__SSE2__)

#include "simd/vec_sse2.hpp"

#include "imgproc/fixedpoint_kernels.inl"

namespace simdcv::imgproc::fx_sse2 {

using B = simd::backend::Sse2;

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

}  // namespace simdcv::imgproc::fx_sse2

#else

namespace simdcv::imgproc::fx_sse2 {
void rowConvU8(const std::uint8_t* padded, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize) {
  fx_autovec::rowConvU8(padded, out, width, k, ksize);
}
void colConvU8(const std::uint8_t* const* rows, std::uint8_t* out, int width,
               const std::uint16_t* k, int ksize) {
  fx_autovec::colConvU8(rows, out, width, k, ksize);
}
void rowConvS16(const std::uint8_t* padded, std::int16_t* out, int width,
                const std::int16_t* k, int ksize) {
  fx_autovec::rowConvS16(padded, out, width, k, ksize);
}
void colConvS16(const std::int16_t* const* rows, std::int16_t* out, int width,
                const std::int16_t* k, int ksize) {
  fx_autovec::colConvS16(rows, out, width, k, ksize);
}
void bgr2grayU8(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
                bool rgbOrder) {
  autovec::bgr2grayU8(bgr, gray, n, rgbOrder);
}
void vblendU16(const std::uint16_t* r0, const std::uint16_t* r1,
               std::uint8_t* dst, int n, int wy) {
  fx_autovec::vblendU16(r0, r1, dst, n, wy);
}
}  // namespace simdcv::imgproc::fx_sse2

#endif
