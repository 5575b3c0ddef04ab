// Median blur implementation.
//
// ksize==3 uses the classic 19-comparator median-of-9 exchange network
// (Paeth / Smith), expressed as min/max pairs so the identical algorithm
// runs scalar, SSE2 (pminub/pmaxub) and NEON (vminq/vmaxq) — bit-exact by
// construction. ksize==5 runs a scalar histogram-based median (Huang's
// algorithm, O(1) amortized per pixel).
#include "imgproc/median.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "imgproc/border.hpp"
#include "simd/neon_compat.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace simdcv::imgproc {

namespace {

// ---- median-of-9 exchange network over a generic element type ---------------
// V is uint8_t, __m128i or uint8x16_t with matching vmin/vmax. Takes a plain
// pointer (not std::array) so vector types with alignment attributes work as
// the element type.
template <typename V, typename MinFn, typename MaxFn>
inline V median9(V* p, MinFn vmin, MaxFn vmax) {
  auto exch = [&](int a, int b) {
    const V lo = vmin(p[a], p[b]);
    const V hi = vmax(p[a], p[b]);
    p[a] = lo;
    p[b] = hi;
  };
  // 19-exchange network (Smith, "Implementing median filters in XC4000E
  // FPGAs"); leaves the median in p[4].
  exch(1, 2); exch(4, 5); exch(7, 8);
  exch(0, 1); exch(3, 4); exch(6, 7);
  exch(1, 2); exch(4, 5); exch(7, 8);
  exch(0, 3); exch(5, 8); exch(4, 7);
  exch(3, 6); exch(1, 4); exch(2, 5);
  exch(4, 7); exch(4, 2); exch(6, 4);
  exch(4, 2);
  return p[4];
}

void median3Row(const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, std::uint8_t* dst, int width,
                KernelPath p) {
  // Interior pixels [1, width-1); caller handles the two border columns.
  int x = 1;
#if defined(__SSE2__)
  if (p == KernelPath::Sse2) {
    auto vmin = [](__m128i a, __m128i b) { return _mm_min_epu8(a, b); };
    auto vmax = [](__m128i a, __m128i b) { return _mm_max_epu8(a, b); };
    for (; x + 16 <= width - 1; x += 16) {
      __m128i win[9];
      const std::uint8_t* rows[3] = {r0, r1, r2};
      for (int ry = 0; ry < 3; ++ry)
        for (int rx = -1; rx <= 1; ++rx)
          win[ry * 3 + rx + 1] = _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(rows[ry] + x + rx));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + x),
                       median9(win, vmin, vmax));
    }
  }
#endif
  if (p == KernelPath::Neon) {
    auto vmin = [](uint8x16_t a, uint8x16_t b) { return vminq_u8(a, b); };
    auto vmax = [](uint8x16_t a, uint8x16_t b) { return vmaxq_u8(a, b); };
    for (; x + 16 <= width - 1; x += 16) {
      uint8x16_t win[9];
      const std::uint8_t* rows[3] = {r0, r1, r2};
      for (int ry = 0; ry < 3; ++ry)
        for (int rx = -1; rx <= 1; ++rx)
          win[ry * 3 + rx + 1] = vld1q_u8(rows[ry] + x + rx);
      vst1q_u8(dst + x, median9(win, vmin, vmax));
    }
  }
  auto smin = [](std::uint8_t a, std::uint8_t b) { return a < b ? a : b; };
  auto smax = [](std::uint8_t a, std::uint8_t b) { return a > b ? a : b; };
  for (; x < width - 1; ++x) {
    std::uint8_t win[9] = {r0[x - 1], r0[x],     r0[x + 1],
                           r1[x - 1], r1[x],     r1[x + 1],
                           r2[x - 1], r2[x],     r2[x + 1]};
    dst[x] = median9(win, smin, smax);
  }
}

std::uint8_t medianAt(const Mat& src, int y, int x, int radius) {
  // Replicate-border scalar window median (used for borders and ksize 5).
  std::array<std::uint8_t, 25> vals{};
  int n = 0;
  for (int dy = -radius; dy <= radius; ++dy) {
    const int sy = borderInterpolate(y + dy, src.rows(), BorderType::Replicate);
    const std::uint8_t* row = src.ptr<std::uint8_t>(sy);
    for (int dx = -radius; dx <= radius; ++dx) {
      const int sx =
          borderInterpolate(x + dx, src.cols(), BorderType::Replicate);
      vals[static_cast<std::size_t>(n++)] = row[sx];
    }
  }
  std::nth_element(vals.begin(), vals.begin() + n / 2, vals.begin() + n);
  return vals[static_cast<std::size_t>(n / 2)];
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
  const KernelPath p = resolvePath(path, /*widest=*/KernelPath::Sse2);
  Mat out = dst.sharesStorageWith(src) ? Mat() : std::move(dst);
  out.create(src.rows(), src.cols(), U8C1);

  if (ksize == 5) {
    median5(src, out);
    dst = std::move(out);
    return;
  }

  const int rows = src.rows(), cols = src.cols();
  for (int y = 0; y < rows; ++y) {
    const int y0 = borderInterpolate(y - 1, rows, BorderType::Replicate);
    const int y2 = borderInterpolate(y + 1, rows, BorderType::Replicate);
    const std::uint8_t* r0 = src.ptr<std::uint8_t>(y0);
    const std::uint8_t* r1 = src.ptr<std::uint8_t>(y);
    const std::uint8_t* r2 = src.ptr<std::uint8_t>(y2);
    std::uint8_t* d = out.ptr<std::uint8_t>(y);
    if (cols >= 3) {
      median3Row(r0, r1, r2, d, cols, p);
      d[0] = medianAt(src, y, 0, 1);
      d[cols - 1] = medianAt(src, y, cols - 1, 1);
    } else {
      for (int x = 0; x < cols; ++x) d[x] = medianAt(src, y, x, 1);
    }
  }
  dst = std::move(out);
}

}  // namespace simdcv::imgproc
