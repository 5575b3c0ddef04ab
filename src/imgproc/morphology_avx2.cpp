// AVX2 morphology and 3x3 median workers: the width-generic bodies from
// morph_kernels.inl at 256 bits — 32 pixels per min/max op. Sole -mavx2 TU
// of this family; execution is runtime-guarded by simdcv::caps.
#include "imgproc/median.hpp"
#include "imgproc/morph_detail.hpp"

#if defined(__AVX2__)

#include "simd/vec_avx2.hpp"

#include "imgproc/morph_kernels.inl"

namespace simdcv::imgproc::morph_avx2 {

using B = simd::backend::Avx2;

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

}  // namespace simdcv::imgproc::morph_avx2

#else  // the runtime never selects Avx2 here, but keep the symbols defined
       // so the engine links on every platform: the scalar arms.

namespace simdcv::imgproc::morph_avx2 {

void verticalMinMax(const std::uint8_t* const* rows, std::uint8_t* out,
                    int width, int kh, detail::MinMax mode) {
  detail::morphVerticalMinMax(rows, out, width, kh, mode, KernelPath::Auto);
}

void horizontalMinMax(const std::uint8_t* padded, std::uint8_t* out, int width,
                      int kw, detail::MinMax mode) {
  detail::morphHorizontalMinMax(padded, out, width, kw, mode, KernelPath::Auto);
}

void median3Row(const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, std::uint8_t* dst, int width) {
  autovec::median3Row(r0, r1, r2, dst, width);
}

}  // namespace simdcv::imgproc::morph_avx2

#endif
