// AVX-512 morphology and 3x3 median workers: the width-generic bodies at
// 512 bits — 64 pixels per min/max op. Sole -mavx512* TU of this family
// (compiled -ffp-contract=off like every avx512 TU); runtime-guarded by
// simdcv::caps.
#include "imgproc/morph_detail.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)

#include "simd/vec_avx512.hpp"

#include "imgproc/morph_kernels.inl"

namespace simdcv::imgproc::morph_avx512 {

using B = simd::backend::Avx512;

void verticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                    int width, int kh, detail::MinMax mode) {
  morph_vker::verticalMinMax<B>(rows, out, width, kh, mode);
}

void horizontalMinMax(const std::uint8_t* padded, std::uint8_t* out, int width,
                      int kw, detail::MinMax mode) {
  morph_vker::horizontalMinMax<B>(padded, out, width, kw, mode);
}

void median3Row(const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, std::uint8_t* dst, int width) {
  morph_vker::median3Row<B>(r0, r1, r2, dst, width);
}

}  // namespace simdcv::imgproc::morph_avx512

#else  // toolchain lacks AVX-512: delegate to the AVX2 workers.

namespace simdcv::imgproc::morph_avx512 {

void verticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                    int width, int kh, detail::MinMax mode) {
  morph_avx2::verticalMinMax(rows, out, width, kh, mode);
}

void horizontalMinMax(const std::uint8_t* padded, std::uint8_t* out, int width,
                      int kw, detail::MinMax mode) {
  morph_avx2::horizontalMinMax(padded, out, width, kw, mode);
}

void median3Row(const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, std::uint8_t* dst, int width) {
  morph_avx2::median3Row(r0, r1, r2, dst, width);
}

}  // namespace simdcv::imgproc::morph_avx512

#endif
