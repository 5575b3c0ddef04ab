// Color conversion dispatch. The gray row's hand arms are the fixed-point
// family's width-generic body (fixedpoint_kernels.inl) at every backend.
#include "imgproc/color.hpp"

#include "imgproc/fixedpoint.hpp"

namespace simdcv::imgproc {

namespace {

void grayRow(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
             bool rgbOrder, KernelPath p) {
  switch (p) {
    case KernelPath::Avx512: fx_avx512::bgr2grayU8(bgr, gray, n, rgbOrder); break;
    case KernelPath::Avx2: fx_avx2::bgr2grayU8(bgr, gray, n, rgbOrder); break;
    case KernelPath::Sse2: fx_sse2::bgr2grayU8(bgr, gray, n, rgbOrder); break;
    case KernelPath::Neon: fx_neon::bgr2grayU8(bgr, gray, n, rgbOrder); break;
    case KernelPath::ScalarNoVec: novec::bgr2grayU8(bgr, gray, n, rgbOrder); break;
    default: autovec::bgr2grayU8(bgr, gray, n, rgbOrder); break;
  }
}

void swapRb(const std::uint8_t* src, std::uint8_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[3 * i] = src[3 * i + 2];
    dst[3 * i + 1] = src[3 * i + 1];
    dst[3 * i + 2] = src[3 * i];
  }
}

}  // namespace

void cvtColor(const Mat& src, Mat& dst, ColorCode code, KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "cvtColor: empty source");
  SIMDCV_REQUIRE(src.depth() == Depth::U8, "cvtColor: u8 images only");
  const KernelPath p = resolvePath(path);
  const int rows = src.rows();
  const int cols = src.cols();

  int wantCh = 0, outCh = 0;
  switch (code) {
    case ColorCode::BGR2GRAY:
    case ColorCode::RGB2GRAY: wantCh = 3; outCh = 1; break;
    case ColorCode::GRAY2BGR: wantCh = 1; outCh = 3; break;
    case ColorCode::BGR2RGB: wantCh = 3; outCh = 3; break;
    case ColorCode::BGRA2BGR: wantCh = 4; outCh = 3; break;
    case ColorCode::BGR2BGRA: wantCh = 3; outCh = 4; break;
  }
  SIMDCV_REQUIRE(src.channels() == wantCh, "cvtColor: wrong channel count");

  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(rows, cols, PixelType(Depth::U8, outCh));

  for (int r = 0; r < rows; ++r) {
    const std::uint8_t* s = src.ptr<std::uint8_t>(r);
    std::uint8_t* d = out.ptr<std::uint8_t>(r);
    const std::size_t n = static_cast<std::size_t>(cols);
    switch (code) {
      case ColorCode::BGR2GRAY:
        grayRow(s, d, n, /*rgbOrder=*/false, p);
        break;
      case ColorCode::RGB2GRAY:
        grayRow(s, d, n, /*rgbOrder=*/true, p);
        break;
      case ColorCode::GRAY2BGR:
        for (std::size_t i = 0; i < n; ++i) {
          d[3 * i] = d[3 * i + 1] = d[3 * i + 2] = s[i];
        }
        break;
      case ColorCode::BGR2RGB:
        swapRb(s, d, n);
        break;
      case ColorCode::BGRA2BGR:
        for (std::size_t i = 0; i < n; ++i) {
          d[3 * i] = s[4 * i];
          d[3 * i + 1] = s[4 * i + 1];
          d[3 * i + 2] = s[4 * i + 2];
        }
        break;
      case ColorCode::BGR2BGRA:
        for (std::size_t i = 0; i < n; ++i) {
          d[4 * i] = s[3 * i];
          d[4 * i + 1] = s[3 * i + 1];
          d[4 * i + 2] = s[3 * i + 2];
          d[4 * i + 3] = 255;
        }
        break;
    }
  }
  dst = std::move(out);
}

}  // namespace simdcv::imgproc
