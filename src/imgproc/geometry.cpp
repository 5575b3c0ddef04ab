#include "imgproc/geometry.hpp"

#include <algorithm>
#include <cmath>

#include "core/saturate.hpp"

namespace simdcv::imgproc {

AffineMat affineIdentity() { return {1, 0, 0, 0, 1, 0}; }

AffineMat getRotationMatrix2D(double cx, double cy, double angleDeg,
                              double scale) {
  const double a = angleDeg * M_PI / 180.0;
  const double alpha = scale * std::cos(a);
  const double beta = scale * std::sin(a);
  // OpenCV's forward matrix (maps src -> dst); warpAffine here wants the
  // dst -> src map, so callers typically pass invertAffine of this.
  return {alpha, beta, (1 - alpha) * cx - beta * cy,
          -beta, alpha, beta * cx + (1 - alpha) * cy};
}

AffineMat invertAffine(const AffineMat& m) {
  const double det = m[0] * m[4] - m[1] * m[3];
  SIMDCV_REQUIRE(std::abs(det) > 1e-12, "invertAffine: singular matrix");
  const double d = 1.0 / det;
  AffineMat r;
  r[0] = m[4] * d;
  r[1] = -m[1] * d;
  r[3] = -m[3] * d;
  r[4] = m[0] * d;
  r[2] = -(r[0] * m[2] + r[1] * m[5]);
  r[5] = -(r[3] * m[2] + r[4] * m[5]);
  return r;
}

namespace {

template <typename T>
void warpRows(const Mat& src, Mat& out, const AffineMat& m, BorderType border,
              double value) {
  const int rows = src.rows(), cols = src.cols();
  const T fillV = saturate_cast<T>(value);
  for (int y = 0; y < out.rows(); ++y) {
    T* d = out.ptr<T>(y);
    // Source coords advance linearly along the row: incremental evaluation.
    double sx = m[1] * y + m[2];
    double sy = m[4] * y + m[5];
    for (int x = 0; x < out.cols(); ++x, sx += m[0], sy += m[3]) {
      const double fx = std::floor(sx);
      const double fy = std::floor(sy);
      const int x0 = static_cast<int>(fx);
      const int y0 = static_cast<int>(fy);
      const double wx = sx - fx;
      const double wy = sy - fy;
      auto sample = [&](int yy, int xx) -> double {
        const int myy = borderInterpolate(yy, rows, border);
        const int mxx = borderInterpolate(xx, cols, border);
        if (myy < 0 || mxx < 0) return value;
        return static_cast<double>(src.at<T>(myy, mxx));
      };
      // Fully outside with Constant border: skip the blend entirely.
      if (border == BorderType::Constant &&
          (x0 < -1 || x0 >= cols || y0 < -1 || y0 >= rows)) {
        d[x] = fillV;
        continue;
      }
      const double v00 = sample(y0, x0);
      const double v01 = sample(y0, x0 + 1);
      const double v10 = sample(y0 + 1, x0);
      const double v11 = sample(y0 + 1, x0 + 1);
      const double top = v00 + (v01 - v00) * wx;
      const double bot = v10 + (v11 - v10) * wx;
      d[x] = saturate_cast<T>(top + (bot - top) * wy);
    }
  }
}

}  // namespace

void warpAffine(const Mat& src, Mat& dst, const AffineMat& m, Size dsize,
                BorderType border, double value, KernelPath /*path*/) {
  SIMDCV_REQUIRE(!src.empty(), "warpAffine: empty source");
  SIMDCV_REQUIRE(src.channels() == 1, "warpAffine: single channel only");
  SIMDCV_REQUIRE(src.depth() == Depth::U8 || src.depth() == Depth::F32,
                 "warpAffine: u8/f32 only");
  SIMDCV_REQUIRE(dsize.width > 0 && dsize.height > 0, "warpAffine: bad dsize");
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(dsize.height, dsize.width, src.type());
  if (src.depth() == Depth::U8)
    warpRows<std::uint8_t>(src, out, m, border, value);
  else
    warpRows<float>(src, out, m, border, value);
  dst = std::move(out);
}

}  // namespace simdcv::imgproc
