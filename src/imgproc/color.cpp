// Color conversion dispatch + channel split/merge.
#include "imgproc/color.hpp"

#include "simd/neon_compat.hpp"

namespace simdcv::imgproc {

namespace {

void grayRow(const std::uint8_t* bgr, std::uint8_t* gray, std::size_t n,
             bool rgbOrder, KernelPath p) {
  switch (p) {
    case KernelPath::Sse2: sse2::bgr2grayU8(bgr, gray, n, rgbOrder); break;
    case KernelPath::Neon: neon::bgr2grayU8(bgr, gray, n, rgbOrder); break;
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
  const KernelPath p = resolvePath(path, /*widest=*/KernelPath::Sse2);
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

void split(const Mat& src, std::vector<Mat>& planes, KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "split: empty source");
  SIMDCV_REQUIRE(src.depth() == Depth::U8 || src.depth() == Depth::F32,
                 "split: u8/f32 only");
  const KernelPath p = resolvePath(path);
  const int ch = src.channels();
  planes.assign(static_cast<std::size_t>(ch), Mat());
  for (auto& m : planes) m.create(src.rows(), src.cols(), PixelType(src.depth(), 1));
  const std::size_t esz = src.elemSize1();
  for (int r = 0; r < src.rows(); ++r) {
    const std::uint8_t* s = src.ptr<std::uint8_t>(r);
    if (src.depth() == Depth::U8 && ch == 3 && p == KernelPath::Neon) {
      // Structured load does the deinterleave in one instruction on ARM.
      std::uint8_t* d0 = planes[0].ptr<std::uint8_t>(r);
      std::uint8_t* d1 = planes[1].ptr<std::uint8_t>(r);
      std::uint8_t* d2 = planes[2].ptr<std::uint8_t>(r);
      int c = 0;
      for (; c + 16 <= src.cols(); c += 16) {
        const uint8x16x3_t v = vld3q_u8(s + 3 * c);
        vst1q_u8(d0 + c, v.val[0]);
        vst1q_u8(d1 + c, v.val[1]);
        vst1q_u8(d2 + c, v.val[2]);
      }
      for (; c < src.cols(); ++c) {
        d0[c] = s[3 * c];
        d1[c] = s[3 * c + 1];
        d2[c] = s[3 * c + 2];
      }
      continue;
    }
    for (int k = 0; k < ch; ++k) {
      std::uint8_t* d = planes[static_cast<std::size_t>(k)].ptr<std::uint8_t>(r);
      for (int c = 0; c < src.cols(); ++c) {
        std::memcpy(d + static_cast<std::size_t>(c) * esz,
                    s + (static_cast<std::size_t>(c) * ch + k) * esz, esz);
      }
    }
  }
}

void merge(const std::vector<Mat>& planes, Mat& dst, KernelPath path) {
  SIMDCV_REQUIRE(!planes.empty() && planes.size() <= 4, "merge: 1..4 planes");
  const Mat& first = planes[0];
  for (const auto& m : planes) {
    SIMDCV_REQUIRE(m.size() == first.size() && m.type() == first.type() &&
                       m.channels() == 1,
                   "merge: planes must be same-size single-channel");
  }
  const KernelPath p = resolvePath(path);
  const int ch = static_cast<int>(planes.size());
  Mat out = std::move(dst);
  out.create(first.rows(), first.cols(), PixelType(first.depth(), ch));
  const std::size_t esz = first.elemSize1();
  for (int r = 0; r < first.rows(); ++r) {
    std::uint8_t* d = out.ptr<std::uint8_t>(r);
    if (first.depth() == Depth::U8 && ch == 3 && p == KernelPath::Neon) {
      const std::uint8_t* s0 = planes[0].ptr<std::uint8_t>(r);
      const std::uint8_t* s1 = planes[1].ptr<std::uint8_t>(r);
      const std::uint8_t* s2 = planes[2].ptr<std::uint8_t>(r);
      int c = 0;
      for (; c + 16 <= first.cols(); c += 16) {
        uint8x16x3_t v;
        v.val[0] = vld1q_u8(s0 + c);
        v.val[1] = vld1q_u8(s1 + c);
        v.val[2] = vld1q_u8(s2 + c);
        vst3q_u8(d + 3 * c, v);
      }
      for (; c < first.cols(); ++c) {
        d[3 * c] = s0[c];
        d[3 * c + 1] = s1[c];
        d[3 * c + 2] = s2[c];
      }
      continue;
    }
    for (int k = 0; k < ch; ++k) {
      const std::uint8_t* s = planes[static_cast<std::size_t>(k)].ptr<std::uint8_t>(r);
      for (int c = 0; c < first.cols(); ++c) {
        std::memcpy(d + (static_cast<std::size_t>(c) * ch + k) * esz,
                    s + static_cast<std::size_t>(c) * esz, esz);
      }
    }
  }
  dst = std::move(out);
}

}  // namespace simdcv::imgproc
