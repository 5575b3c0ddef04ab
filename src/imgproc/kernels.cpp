#include "imgproc/kernels.hpp"

#include <cmath>

#include "core/saturate.hpp"
#include "imgproc/border.hpp"

namespace simdcv::imgproc {

std::vector<float> getGaussianKernel(int ksize, double sigma) {
  SIMDCV_REQUIRE(ksize > 0 && (ksize & 1) == 1, "Gaussian ksize must be odd");
  if (sigma <= 0) sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8;
  const double s2 = 2.0 * sigma * sigma;
  const int c = ksize / 2;
  std::vector<double> k(static_cast<std::size_t>(ksize));
  double sum = 0;
  for (int i = 0; i < ksize; ++i) {
    const double d = i - c;
    k[static_cast<std::size_t>(i)] = std::exp(-d * d / s2);
    sum += k[static_cast<std::size_t>(i)];
  }
  std::vector<float> out(static_cast<std::size_t>(ksize));
  for (int i = 0; i < ksize; ++i)
    out[static_cast<std::size_t>(i)] =
        static_cast<float>(k[static_cast<std::size_t>(i)] / sum);
  return out;
}

int gaussianKsizeFromSigma(double sigma) {
  SIMDCV_REQUIRE(sigma > 0, "sigma must be positive to derive ksize");
  int k = cvRound(sigma * 3.0 * 2.0 + 1.0) | 1;
  if (k < 3) k = 3;
  return k;
}

std::vector<float> getDerivKernel(int order, int ksize, bool normalize) {
  SIMDCV_REQUIRE(ksize > 0 && (ksize & 1) == 1, "deriv ksize must be odd");
  SIMDCV_REQUIRE(order >= 0 && order < ksize, "derivative order out of range");
  // Build in exact integer arithmetic, then scale.
  std::vector<long long> k{1};
  auto convolve = [&k](long long a, long long b) {
    // k <- k * [a b]
    std::vector<long long> r(k.size() + 1, 0);
    for (std::size_t i = 0; i < k.size(); ++i) {
      r[i] += k[i] * a;
      r[i + 1] += k[i] * b;
    }
    k = std::move(r);
  };
  const int smooth = ksize - 1 - order;
  for (int i = 0; i < smooth; ++i) convolve(1, 1);
  for (int i = 0; i < order; ++i) convolve(-1, 1);
  const double scale = normalize ? 1.0 / static_cast<double>(1LL << smooth) : 1.0;
  std::vector<float> out(k.size());
  for (std::size_t i = 0; i < k.size(); ++i)
    out[i] = static_cast<float>(k[i] * scale);
  return out;
}

void getDerivKernels(std::vector<float>& kx, std::vector<float>& ky, int dx,
                     int dy, int ksize, bool normalize) {
  kx = getDerivKernel(dx, ksize, normalize);
  ky = getDerivKernel(dy, ksize, normalize);
}

const char* toString(BorderType b) noexcept {
  switch (b) {
    case BorderType::Constant: return "constant";
    case BorderType::Replicate: return "replicate";
    case BorderType::Reflect: return "reflect";
    case BorderType::Reflect101: return "reflect101";
    case BorderType::Wrap: return "wrap";
  }
  return "?";
}

}  // namespace simdcv::imgproc
