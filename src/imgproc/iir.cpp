#include "imgproc/iir.hpp"

#include <vector>

#include "imgproc/geometry.hpp"
#include "simd/neon_compat.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace simdcv::imgproc {

namespace {

void checkInput(const Mat& src, float alpha, const char* what) {
  SIMDCV_REQUIRE(!src.empty(), std::string(what) + ": empty source");
  SIMDCV_REQUIRE(src.type() == F32C1, std::string(what) + ": f32c1 only");
  SIMDCV_REQUIRE(alpha > 0.0f && alpha <= 1.0f,
                 std::string(what) + ": alpha must be in (0, 1]");
}

void hRowScalar(const float* s, float* d, int n, float alpha) {
  float y = s[0];
  const float beta = 1.0f - alpha;
  d[0] = y;
  for (int x = 1; x < n; ++x) {
    y = alpha * s[x] + beta * y;
    d[x] = y;
  }
}

#if defined(__SSE2__)
// Four independent row recurrences in the four lanes of one register: the
// serial dependency chain still costs one FMA-latency per step, but it now
// produces four pixels instead of one.
void hRows4Sse2(const float* const s[4], float* const d[4], int n,
                float alpha) {
  const __m128 va = _mm_set1_ps(alpha);
  const __m128 vb = _mm_set1_ps(1.0f - alpha);
  __m128 y = _mm_set_ps(s[3][0], s[2][0], s[1][0], s[0][0]);
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, y);
  for (int r = 0; r < 4; ++r) d[r][0] = lanes[r];
  for (int x = 1; x < n; ++x) {
    const __m128 vx = _mm_set_ps(s[3][x], s[2][x], s[1][x], s[0][x]);
    y = _mm_add_ps(_mm_mul_ps(va, vx), _mm_mul_ps(vb, y));
    _mm_store_ps(lanes, y);
    for (int r = 0; r < 4; ++r) d[r][x] = lanes[r];
  }
}
#endif

void hRows4Neon(const float* const s[4], float* const d[4], int n,
                float alpha) {
  const float beta = 1.0f - alpha;
  float32x4_t y = {s[0][0], s[1][0], s[2][0], s[3][0]};
  for (int r = 0; r < 4; ++r) d[r][0] = vgetq_lane_f32(y, r);
  for (int x = 1; x < n; ++x) {
    const float32x4_t vx = {s[0][x], s[1][x], s[2][x], s[3][x]};
    y = vmlaq_n_f32(vmulq_n_f32(vx, alpha), y, beta);
    for (int r = 0; r < 4; ++r) d[r][x] = vgetq_lane_f32(y, r);
  }
}

void vColsScalar(const Mat& src, Mat& dst, float alpha) {
  const int rows = src.rows(), cols = src.cols();
  const float beta = 1.0f - alpha;
  std::memcpy(dst.ptr<float>(0), src.ptr<float>(0),
              static_cast<std::size_t>(cols) * sizeof(float));
  for (int y = 1; y < rows; ++y) {
    const float* s = src.ptr<float>(y);
    const float* prev = dst.ptr<float>(y - 1);
    float* d = dst.ptr<float>(y);
    for (int x = 0; x < cols; ++x) d[x] = alpha * s[x] + beta * prev[x];
  }
}

#if defined(__SSE2__)
void vColsSse2(const Mat& src, Mat& dst, float alpha) {
  const int rows = src.rows(), cols = src.cols();
  const __m128 va = _mm_set1_ps(alpha);
  const __m128 vb = _mm_set1_ps(1.0f - alpha);
  std::memcpy(dst.ptr<float>(0), src.ptr<float>(0),
              static_cast<std::size_t>(cols) * sizeof(float));
  for (int y = 1; y < rows; ++y) {
    const float* s = src.ptr<float>(y);
    const float* prev = dst.ptr<float>(y - 1);
    float* d = dst.ptr<float>(y);
    int x = 0;
    for (; x + 4 <= cols; x += 4) {
      _mm_storeu_ps(d + x, _mm_add_ps(_mm_mul_ps(va, _mm_loadu_ps(s + x)),
                                      _mm_mul_ps(vb, _mm_loadu_ps(prev + x))));
    }
    for (; x < cols; ++x)
      d[x] = alpha * s[x] + (1.0f - alpha) * prev[x];
  }
}
#endif

void vColsNeon(const Mat& src, Mat& dst, float alpha) {
  const int rows = src.rows(), cols = src.cols();
  const float beta = 1.0f - alpha;
  std::memcpy(dst.ptr<float>(0), src.ptr<float>(0),
              static_cast<std::size_t>(cols) * sizeof(float));
  for (int y = 1; y < rows; ++y) {
    const float* s = src.ptr<float>(y);
    const float* prev = dst.ptr<float>(y - 1);
    float* d = dst.ptr<float>(y);
    int x = 0;
    for (; x + 4 <= cols; x += 4) {
      const float32x4_t r =
          vmlaq_n_f32(vmulq_n_f32(vld1q_f32(s + x), alpha), vld1q_f32(prev + x), beta);
      vst1q_f32(d + x, r);
    }
    for (; x < cols; ++x) d[x] = alpha * s[x] + beta * prev[x];
  }
}

}  // namespace

void iirSmoothHorizontal(const Mat& src, Mat& dst, float alpha,
                         KernelPath path) {
  checkInput(src, alpha, "iirSmoothHorizontal");
  const KernelPath p = resolvePath(path, /*widest=*/KernelPath::Sse2);
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(src.rows(), src.cols(), F32C1);
  const int rows = src.rows(), cols = src.cols();
  int y = 0;
  const bool simd4 =
      (p == KernelPath::Sse2 || p == KernelPath::Neon) && cols > 0;
  if (simd4) {
    for (; y + 4 <= rows; y += 4) {
      const float* s[4];
      float* d[4];
      for (int r = 0; r < 4; ++r) {
        s[r] = src.ptr<float>(y + r);
        d[r] = out.ptr<float>(y + r);
      }
#if defined(__SSE2__)
      if (p != KernelPath::Neon) {
        hRows4Sse2(s, d, cols, alpha);
        continue;
      }
#endif
      hRows4Neon(s, d, cols, alpha);
    }
  }
  for (; y < rows; ++y)
    hRowScalar(src.ptr<float>(y), out.ptr<float>(y), cols, alpha);
  dst = std::move(out);
}

void iirSmoothVertical(const Mat& src, Mat& dst, float alpha,
                       KernelPath path) {
  checkInput(src, alpha, "iirSmoothVertical");
  const KernelPath p = resolvePath(path, /*widest=*/KernelPath::Sse2);
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(src.rows(), src.cols(), F32C1);
  switch (p) {
#if defined(__SSE2__)
    case KernelPath::Sse2: vColsSse2(src, out, alpha); break;
#endif
    case KernelPath::Neon: vColsNeon(src, out, alpha); break;
    default: vColsScalar(src, out, alpha); break;
  }
  dst = std::move(out);
}

void iirSmooth2D(const Mat& src, Mat& dst, float alpha, KernelPath path) {
  checkInput(src, alpha, "iirSmooth2D");
  Mat fwd, flipped, bwd;
  iirSmoothHorizontal(src, fwd, alpha, path);
  flip(fwd, flipped, FlipAxis::Horizontal);
  iirSmoothHorizontal(flipped, bwd, alpha, path);
  flip(bwd, fwd, FlipAxis::Horizontal);
  Mat vfwd, vflip, vbwd;
  iirSmoothVertical(fwd, vfwd, alpha, path);
  flip(vfwd, vflip, FlipAxis::Vertical);
  iirSmoothVertical(vflip, vbwd, alpha, path);
  flip(vbwd, dst, FlipAxis::Vertical);
}

}  // namespace simdcv::imgproc
