// NEON fixed-point workers (paper "HAND", ARM): the width-generic bodies
// from fixedpoint_kernels.inl at VecTraits<Neon> — 8 pixels per 16-bit lane
// op, the Limonova-style pure-integer pipeline, plus cvtColor's gray row
// (vld3q deinterleave) and resize's u16 vertical blend. Runs on real NEON
// hardware on ARM and through the emulation layer elsewhere.
#include "imgproc/fixedpoint.hpp"

#include "simd/vec_neon.hpp"

#include "imgproc/fixedpoint_kernels.inl"

namespace simdcv::imgproc::fx_neon {

using B = simd::backend::Neon;

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

}  // namespace simdcv::imgproc::fx_neon
