// Threshold dispatch: quantizes thresh/maxval per depth (OpenCV semantics),
// resolves the kernel path, and iterates Mat rows.
#include "imgproc/threshold.hpp"

#include "core/saturate.hpp"
#include "prof/prof.hpp"
#include "runtime/parallel.hpp"

namespace simdcv::imgproc {

const char* toString(ThresholdType t) noexcept {
  switch (t) {
    case ThresholdType::Binary: return "binary";
    case ThresholdType::BinaryInv: return "binary-inv";
    case ThresholdType::Trunc: return "trunc";
    case ThresholdType::ToZero: return "tozero";
    case ThresholdType::ToZeroInv: return "tozero-inv";
  }
  return "?";
}

namespace detail {

ThreshU8Fn threshU8For(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &avx512::threshU8;
    case KernelPath::Avx2: return &avx2::threshU8;
    case KernelPath::Sse2: return &sse2::threshU8;
    case KernelPath::Neon: return &neon::threshU8;
    case KernelPath::ScalarNoVec: return &novec::threshU8;
    default: return &autovec::threshU8;
  }
}

ThreshS16Fn threshS16For(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &avx512::threshS16;
    case KernelPath::Avx2: return &avx2::threshS16;
    case KernelPath::Sse2: return &sse2::threshS16;
    case KernelPath::Neon: return &neon::threshS16;
    case KernelPath::ScalarNoVec: return &novec::threshS16;
    default: return &autovec::threshS16;
  }
}

}  // namespace detail

namespace {

// Element-wise, so any row partition yields bit-identical output; bands just
// split the flat range (continuous case) or the row loop (ROI case).
template <typename T, typename Fn>
void forEachRow(const Mat& src, Mat& dst, Fn fn) {
  const std::size_t n = static_cast<std::size_t>(src.cols()) * src.channels();
  const bool flat = src.isContinuous() && dst.isContinuous();
  const int grain = runtime::parallelThreshold(n * sizeof(T), src.rows());
  auto rows = [&](runtime::Range band) {
    if (flat) {
      fn(src.ptr<T>(band.begin), dst.ptr<T>(band.begin),
         n * static_cast<std::size_t>(band.size()));
    } else {
      for (int r = band.begin; r < band.end; ++r)
        fn(src.ptr<T>(r), dst.ptr<T>(r), n);
    }
  };
  // One captured reference fits std::function's inline buffer, so a call
  // makes no heap allocation.
  runtime::parallel_for(
      {0, src.rows()}, [&rows](runtime::Range band) { rows(band); },
      grain);
}

}  // namespace

double threshold(const Mat& src, Mat& dst, double thresh, double maxval,
                 ThresholdType type, KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "threshold: empty source");
  SIMDCV_REQUIRE(src.depth() == Depth::U8 || src.depth() == Depth::S16 ||
                     src.depth() == Depth::F32,
                 "threshold: supported depths are u8, s16, f32");
  const std::uint64_t bytes = 2 * static_cast<std::uint64_t>(src.rows()) *
                              src.cols() * src.elemSize();
  const KernelPath p = resolvePath(path);
  SIMDCV_TRACE_SCOPE("threshold", p, bytes);
  // Element-wise op: in-place (dst aliasing src) is safe.
  Mat out = std::move(dst);
  out.create(src.rows(), src.cols(), src.type());

  switch (src.depth()) {
    case Depth::U8: {
      // OpenCV quantization: floor the threshold, round+saturate maxval.
      const int it = cvFloor(thresh);
      const std::uint8_t imax = saturate_cast<std::uint8_t>(cvRound(maxval));
      // Degenerate thresholds: when it < 0 every pixel compares greater, when
      // it >= 255 none does — collapse to a fill or a copy (as OpenCV does).
      if (it < 0 || it >= 255) {
        const bool noneAbove = it >= 255;
        enum class Act { Fill, Copy } act = Act::Fill;
        std::uint8_t fill = 0;
        switch (type) {
          case ThresholdType::Binary: fill = noneAbove ? 0 : imax; break;
          case ThresholdType::BinaryInv: fill = noneAbove ? imax : 0; break;
          case ThresholdType::Trunc:
            // all above: dst = saturate(thresh) = 0; none above: dst = src
            if (noneAbove) act = Act::Copy;
            break;
          case ThresholdType::ToZero:
            if (!noneAbove) act = Act::Copy;
            break;
          case ThresholdType::ToZeroInv:
            if (noneAbove) act = Act::Copy;
            break;
        }
        if (act == Act::Copy) src.copyTo(out);
        else out.setTo(fill);
        dst = std::move(out);
        return it;
      }
      const std::uint8_t t8 = saturate_cast<std::uint8_t>(it);
      const detail::ThreshU8Fn fn8 = detail::threshU8For(p);
      forEachRow<std::uint8_t>(src, out, [&](const std::uint8_t* s,
                                             std::uint8_t* d, std::size_t n) {
        fn8(s, d, n, t8, imax, type);
      });
      dst = std::move(out);
      return it;
    }
    case Depth::S16: {
      const std::int16_t t16 = saturate_cast<std::int16_t>(cvFloor(thresh));
      const std::int16_t imax = saturate_cast<std::int16_t>(cvRound(maxval));
      const detail::ThreshS16Fn fn16 = detail::threshS16For(p);
      forEachRow<std::int16_t>(src, out, [&](const std::int16_t* s,
                                             std::int16_t* d, std::size_t n) {
        fn16(s, d, n, t16, imax, type);
      });
      dst = std::move(out);
      return t16;
    }
    case Depth::F32:
    default: {
      const float tf = static_cast<float>(thresh);
      const float mf = static_cast<float>(maxval);
      forEachRow<float>(src, out,
                        [&](const float* s, float* d, std::size_t n) {
        switch (p) {
          case KernelPath::Avx512: avx512::threshF32(s, d, n, tf, mf, type); break;
          case KernelPath::Avx2: avx2::threshF32(s, d, n, tf, mf, type); break;
          case KernelPath::Sse2: sse2::threshF32(s, d, n, tf, mf, type); break;
          case KernelPath::Neon: neon::threshF32(s, d, n, tf, mf, type); break;
          case KernelPath::ScalarNoVec:
            novec::threshF32(s, d, n, tf, mf, type);
            break;
          default: autovec::threshF32(s, d, n, tf, mf, type); break;
        }
      });
      dst = std::move(out);
      return thresh;
    }
  }
}

}  // namespace simdcv::imgproc
