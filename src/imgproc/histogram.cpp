#include "imgproc/histogram.hpp"

namespace simdcv::imgproc {

std::array<std::uint32_t, 256> calcHist(const Mat& src, KernelPath /*path*/) {
  SIMDCV_REQUIRE(!src.empty(), "calcHist: empty source");
  SIMDCV_REQUIRE(src.depth() == Depth::U8, "calcHist: u8 only");
  // Four sub-histograms break the store-to-load dependency chain (the
  // standard optimization; histograms do not vectorize, cf. paper ref [11]).
  std::array<std::uint32_t, 256> h0{}, h1{}, h2{}, h3{};
  const std::size_t n = static_cast<std::size_t>(src.cols()) * src.channels();
  for (int r = 0; r < src.rows(); ++r) {
    const std::uint8_t* p = src.ptr<std::uint8_t>(r);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      ++h0[p[i]];
      ++h1[p[i + 1]];
      ++h2[p[i + 2]];
      ++h3[p[i + 3]];
    }
    for (; i < n; ++i) ++h0[p[i]];
  }
  std::array<std::uint32_t, 256> out{};
  for (int v = 0; v < 256; ++v) {
    const auto iv = static_cast<std::size_t>(v);
    out[iv] = h0[iv] + h1[iv] + h2[iv] + h3[iv];
  }
  return out;
}

double otsuThreshold(const Mat& src, KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "otsuThreshold: empty source");
  SIMDCV_REQUIRE(src.type() == U8C1, "otsuThreshold: u8c1 only");
  const auto hist = calcHist(src, path);
  const double total = static_cast<double>(src.total());
  double sumAll = 0;
  for (int v = 0; v < 256; ++v) sumAll += v * static_cast<double>(hist[static_cast<std::size_t>(v)]);
  double sumB = 0, wB = 0, bestVar = -1;
  int best = 0;
  for (int t = 0; t < 256; ++t) {
    wB += hist[static_cast<std::size_t>(t)];
    if (wB == 0) continue;
    const double wF = total - wB;
    if (wF == 0) break;
    sumB += t * static_cast<double>(hist[static_cast<std::size_t>(t)]);
    const double mB = sumB / wB;
    const double mF = (sumAll - sumB) / wF;
    const double between = wB * wF * (mB - mF) * (mB - mF);
    if (between > bestVar) {
      bestVar = between;
      best = t;
    }
  }
  return best;
}

}  // namespace simdcv::imgproc
