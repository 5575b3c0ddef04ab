#include "imgproc/pyramid.hpp"

#include "imgproc/filter.hpp"

namespace simdcv::imgproc {

namespace {

const std::vector<float>& pyrKernel() {
  static const std::vector<float> k = {1.0f / 16, 4.0f / 16, 6.0f / 16,
                                       4.0f / 16, 1.0f / 16};
  return k;
}

}  // namespace

void pyrDown(const Mat& src, Mat& dst, KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "pyrDown: empty source");
  SIMDCV_REQUIRE(src.channels() == 1, "pyrDown: single channel only");
  const int dw = (src.cols() + 1) / 2;
  const int dh = (src.rows() + 1) / 2;
  Mat blurred;
  sepFilter2D(src, blurred, src.depth(), pyrKernel(), pyrKernel(),
              BorderType::Reflect101, 0.0, path);
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(dh, dw, src.type());
  const std::size_t esz = src.elemSize();
  for (int y = 0; y < dh; ++y) {
    const std::uint8_t* s = blurred.ptr<std::uint8_t>(2 * y);
    std::uint8_t* d = out.ptr<std::uint8_t>(y);
    for (int x = 0; x < dw; ++x)
      std::memcpy(d + static_cast<std::size_t>(x) * esz,
                  s + static_cast<std::size_t>(2 * x) * esz, esz);
  }
  dst = std::move(out);
}

}  // namespace simdcv::imgproc
