// Median blur implementation.
//
// ksize==3 uses the classic 19-comparator median-of-9 exchange network
// (Paeth / Smith, detail::median9), expressed as min/max pairs so the
// identical algorithm runs scalar and on VecTraits vectors
// (morph_kernels.inl: pminub/pmaxub at every x86 width, vminq/vmaxq on
// NEON) — bit-exact by construction. ksize==5 runs a scalar
// histogram-based median (Huang's algorithm, O(1) amortized per pixel).
#include "imgproc/median.hpp"

#include <array>

#include "imgproc/border.hpp"
#include "imgproc/morph_detail.hpp"
#include "simd/vec_neon.hpp"

#if defined(__SSE2__)
#include "simd/vec_sse2.hpp"
#endif

#include "imgproc/morph_kernels.inl"

namespace simdcv::imgproc {

namespace {

using Median3RowFn = void (*)(const std::uint8_t*, const std::uint8_t*,
                              const std::uint8_t*, std::uint8_t*, int);

// Border columns, every path: the same network on replicate-clamped taps.
std::uint8_t median3At(const std::uint8_t* r0, const std::uint8_t* r1,
                       const std::uint8_t* r2, int width, int x) {
  const int xl = x > 0 ? x - 1 : 0;
  const int xr = x + 1 < width ? x + 1 : width - 1;
  std::uint8_t win[9] = {r0[xl], r0[x], r0[xr], r1[xl], r1[x],
                         r1[xr], r2[xl], r2[x], r2[xr]};
  auto smin = [](std::uint8_t a, std::uint8_t b) { return a < b ? a : b; };
  auto smax = [](std::uint8_t a, std::uint8_t b) { return a > b ? a : b; };
  return detail::median9(win, smin, smax);
}

Median3RowFn median3RowFor(KernelPath p) {
  switch (p) {
    case KernelPath::Avx512: return &morph_avx512::median3Row;
    case KernelPath::Avx2: return &morph_avx2::median3Row;
#if defined(__SSE2__)
    case KernelPath::Sse2: return &morph_vker::median3Row<simd::backend::Sse2>;
#endif
    case KernelPath::Neon: return &morph_vker::median3Row<simd::backend::Neon>;
    case KernelPath::ScalarNoVec: return &novec::median3Row;
    default: return &autovec::median3Row;
  }
}

// Huang's sliding-histogram median for ksize 5 (scalar; O(1) updates).
void median5(const Mat& src, Mat& dst) {
  const int rows = src.rows(), cols = src.cols();
  const int radius = 2, winN = 25, half = winN / 2;
  std::array<int, 256> hist{};
  for (int y = 0; y < rows; ++y) {
    hist.fill(0);
    // Initialize the window at x = 0.
    for (int dy = -radius; dy <= radius; ++dy) {
      const int sy = borderInterpolate(y + dy, rows, BorderType::Replicate);
      const std::uint8_t* row = src.ptr<std::uint8_t>(sy);
      for (int dx = -radius; dx <= radius; ++dx)
        ++hist[row[borderInterpolate(dx, cols, BorderType::Replicate)]];
    }
    std::uint8_t* d = dst.ptr<std::uint8_t>(y);
    for (int x = 0; x < cols; ++x) {
      if (x > 0) {
        // Slide: remove column x-1-radius, add column x+radius.
        const int out = borderInterpolate(x - 1 - radius, cols, BorderType::Replicate);
        const int in = borderInterpolate(x + radius, cols, BorderType::Replicate);
        for (int dy = -radius; dy <= radius; ++dy) {
          const int sy = borderInterpolate(y + dy, rows, BorderType::Replicate);
          const std::uint8_t* row = src.ptr<std::uint8_t>(sy);
          --hist[row[out]];
          ++hist[row[in]];
        }
      }
      int acc = 0;
      for (int v = 0; v < 256; ++v) {
        acc += hist[static_cast<std::size_t>(v)];
        if (acc > half) {
          d[x] = static_cast<std::uint8_t>(v);
          break;
        }
      }
    }
  }
}

}  // namespace

void medianBlur(const Mat& src, Mat& dst, int ksize, KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "medianBlur: empty source");
  SIMDCV_REQUIRE(src.type() == U8C1, "medianBlur: u8c1 only");
  SIMDCV_REQUIRE(ksize == 3 || ksize == 5, "medianBlur: ksize must be 3 or 5");
  const KernelPath p = resolvePath(path);
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(src.rows(), src.cols(), U8C1);

  if (ksize == 5) {
    median5(src, out);
    dst = std::move(out);
    return;
  }

  const Median3RowFn row = median3RowFor(p);
  const int rows = src.rows(), cols = src.cols();
  for (int y = 0; y < rows; ++y) {
    const std::uint8_t* r0 = src.ptr<std::uint8_t>(
        borderInterpolate(y - 1, rows, BorderType::Replicate));
    const std::uint8_t* r1 = src.ptr<std::uint8_t>(y);
    const std::uint8_t* r2 = src.ptr<std::uint8_t>(
        borderInterpolate(y + 1, rows, BorderType::Replicate));
    std::uint8_t* d = out.ptr<std::uint8_t>(y);
    row(r0, r1, r2, d, cols);
    d[0] = median3At(r0, r1, r2, cols, 0);
    d[cols - 1] = median3At(r0, r1, r2, cols, cols - 1);
  }
  dst = std::move(out);
}

}  // namespace simdcv::imgproc
