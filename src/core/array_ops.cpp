// Public array-op API: geometry checks, path resolution, row iteration.
#include "core/array_ops.hpp"

#include "core/array_ops_detail.hpp"
#include "core/saturate.hpp"
#include "prof/prof.hpp"
#include "runtime/parallel.hpp"

namespace simdcv::core {

namespace {

using detail::BinOp;

// Band-parallel row walk for the element-wise ops below. Bands partition
// output rows, so results are bit-identical to the serial walk; reductions
// (sum/minMax) deliberately stay serial to keep their accumulation
// order — and thus their float results — unchanged.
template <typename Fn>
void forEachBand(int rows, std::size_t bytesPerRow, const Fn& fn) {
  runtime::parallel_for({0, rows}, fn,
                        runtime::parallelThreshold(bytesPerRow, rows));
}

void checkPair(const Mat& a, const Mat& b, const char* what) {
  SIMDCV_REQUIRE(!a.empty() && !b.empty(), std::string(what) + ": empty input");
  SIMDCV_REQUIRE(a.size() == b.size() && a.type() == b.type(),
                 std::string(what) + ": geometry/type mismatch");
}

void binDispatch(BinOp op, Depth d, const void* a, const void* b, void* dst,
                 std::size_t n, KernelPath p) {
  switch (p) {
    case KernelPath::Avx512:
      if (detail::aops_avx512::binRange(op, d, a, b, dst, n)) return;
      break;
    case KernelPath::Avx2:
      if (detail::aops_avx2::binRange(op, d, a, b, dst, n)) return;
      break;
    case KernelPath::Sse2:
      if (detail::aops_sse2::binRange(op, d, a, b, dst, n)) return;
      break;
    case KernelPath::Neon:
      if (detail::aops_neon::binRange(op, d, a, b, dst, n)) return;
      break;
    case KernelPath::ScalarNoVec:
      detail::aops_novec::binRange(op, d, a, b, dst, n);
      return;
    default:
      break;
  }
  detail::aops_autovec::binRange(op, d, a, b, dst, n);
}

void binaryOp(BinOp op, const Mat& a, const Mat& b, Mat& dst, KernelPath path,
              const char* what) {
  checkPair(a, b, what);
  const KernelPath p = resolvePath(path);
  // `what` is always a literal at the call sites below, so the profiler can
  // keep the pointer (SIMDCV_TRACE_SCOPE's static-storage contract).
  SIMDCV_TRACE_SCOPE(what, p,
                     3 * static_cast<std::uint64_t>(a.rows()) * a.cols() *
                         a.channels() * depthSize(a.depth()));
  Mat out = (dst.sharesStorageWith(a) || dst.sharesStorageWith(b))
                ? Mat(a.rows(), a.cols(), a.type())
                : std::move(dst);
  out.create(a.rows(), a.cols(), a.type());
  const std::size_t n = static_cast<std::size_t>(a.cols()) * a.channels();
  const bool flat = a.isContinuous() && b.isContinuous() && out.isContinuous();
  forEachBand(a.rows(), 2 * n * depthSize(a.depth()), [&](runtime::Range band) {
    if (flat) {
      binDispatch(op, a.depth(), a.ptr<std::uint8_t>(band.begin),
                  b.ptr<std::uint8_t>(band.begin),
                  out.ptr<std::uint8_t>(band.begin),
                  n * static_cast<std::size_t>(band.size()), p);
    } else {
      for (int r = band.begin; r < band.end; ++r)
        binDispatch(op, a.depth(), a.ptr<std::uint8_t>(r),
                    b.ptr<std::uint8_t>(r), out.ptr<std::uint8_t>(r), n, p);
    }
  });
  dst = std::move(out);
}

}  // namespace

namespace detail {

namespace {

const void* advance(const void* p, std::size_t bytes) {
  return static_cast<const std::uint8_t*>(p) + bytes;
}
void* advance(void* p, std::size_t bytes) {
  return static_cast<std::uint8_t*>(p) + bytes;
}

// Hand arm over the leading whole vectors, scalar arm over the rest (all of
// the row when the hand arm does not serve the depth).
template <std::size_t (*Hand)(Depth, const void*, void*, std::size_t, double,
                              double)>
void scaleWith(Depth d, const void* a, void* dst, std::size_t n, double alpha,
               double beta) {
  const std::size_t done = Hand(d, a, dst, n, alpha, beta);
  const std::size_t off = done * depthSize(d);
  aops_autovec::scaleRange(d, advance(a, off), advance(dst, off), n - done,
                           alpha, beta);
}

template <std::size_t (*Hand)(Depth, const void*, const void*, void*,
                              std::size_t, double, double, double)>
void weightedWith(Depth d, const void* a, const void* b, void* dst,
                  std::size_t n, double alpha, double beta, double gamma) {
  const std::size_t done = Hand(d, a, b, dst, n, alpha, beta, gamma);
  const std::size_t off = done * depthSize(d);
  aops_autovec::weightedRange(d, advance(a, off), advance(b, off),
                              advance(dst, off), n - done, alpha, beta, gamma);
}

}  // namespace

ScaleFn scaleFnFor(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &scaleWith<&aops_avx512::scaleRange>;
    case KernelPath::Avx2: return &scaleWith<&aops_avx2::scaleRange>;
    case KernelPath::Sse2: return &scaleWith<&aops_sse2::scaleRange>;
    case KernelPath::ScalarNoVec: return &aops_novec::scaleRange;
    default: return &aops_autovec::scaleRange;  // Auto; Neon has no f64 arm
  }
}

WeightedFn weightedFnFor(KernelPath path) {
  switch (resolvePath(path)) {
    case KernelPath::Avx512: return &weightedWith<&aops_avx512::weightedRange>;
    case KernelPath::Avx2: return &weightedWith<&aops_avx2::weightedRange>;
    case KernelPath::Sse2: return &weightedWith<&aops_sse2::weightedRange>;
    case KernelPath::ScalarNoVec: return &aops_novec::weightedRange;
    default: return &aops_autovec::weightedRange;  // Auto; Neon has no f64 arm
  }
}

}  // namespace detail

void add(const Mat& a, const Mat& b, Mat& dst, KernelPath path) {
  binaryOp(BinOp::Add, a, b, dst, path, "add");
}
void subtract(const Mat& a, const Mat& b, Mat& dst, KernelPath path) {
  binaryOp(BinOp::Sub, a, b, dst, path, "subtract");
}
void absdiff(const Mat& a, const Mat& b, Mat& dst, KernelPath path) {
  binaryOp(BinOp::AbsDiff, a, b, dst, path, "absdiff");
}
void min(const Mat& a, const Mat& b, Mat& dst, KernelPath path) {
  binaryOp(BinOp::Min, a, b, dst, path, "min");
}
void max(const Mat& a, const Mat& b, Mat& dst, KernelPath path) {
  binaryOp(BinOp::Max, a, b, dst, path, "max");
}
void bitwiseAnd(const Mat& a, const Mat& b, Mat& dst, KernelPath path) {
  SIMDCV_REQUIRE(!isFloatDepth(a.depth()), "bitwiseAnd: integer depths only");
  binaryOp(BinOp::And, a, b, dst, path, "bitwiseAnd");
}
void bitwiseOr(const Mat& a, const Mat& b, Mat& dst, KernelPath path) {
  SIMDCV_REQUIRE(!isFloatDepth(a.depth()), "bitwiseOr: integer depths only");
  binaryOp(BinOp::Or, a, b, dst, path, "bitwiseOr");
}
void bitwiseXor(const Mat& a, const Mat& b, Mat& dst, KernelPath path) {
  SIMDCV_REQUIRE(!isFloatDepth(a.depth()), "bitwiseXor: integer depths only");
  binaryOp(BinOp::Xor, a, b, dst, path, "bitwiseXor");
}

void bitwiseNot(const Mat& a, Mat& dst, KernelPath path) {
  SIMDCV_REQUIRE(!a.empty(), "bitwiseNot: empty input");
  SIMDCV_REQUIRE(!isFloatDepth(a.depth()), "bitwiseNot: integer depths only");
  const KernelPath p = resolvePath(path);
  SIMDCV_TRACE_SCOPE("bitwiseNot", p,
                     2 * static_cast<std::uint64_t>(a.rows()) * a.cols() *
                         a.channels() * depthSize(a.depth()));
  Mat out = std::move(dst);  // element-wise: in-place aliasing is safe
  out.create(a.rows(), a.cols(), a.type());
  const std::size_t n = static_cast<std::size_t>(a.cols()) * a.channels();
  auto run = p == KernelPath::ScalarNoVec ? &detail::aops_novec::notRange
                                          : &detail::aops_autovec::notRange;
  const bool flat = a.isContinuous() && out.isContinuous();
  forEachBand(a.rows(), n * depthSize(a.depth()), [&](runtime::Range band) {
    if (flat) {
      run(a.depth(), a.ptr<std::uint8_t>(band.begin),
          out.ptr<std::uint8_t>(band.begin),
          n * static_cast<std::size_t>(band.size()));
    } else {
      for (int r = band.begin; r < band.end; ++r)
        run(a.depth(), a.ptr<std::uint8_t>(r), out.ptr<std::uint8_t>(r), n);
    }
  });
  dst = std::move(out);
}

void scaleAdd(const Mat& a, double alpha, double beta, Mat& dst,
              KernelPath path) {
  SIMDCV_REQUIRE(!a.empty(), "scaleAdd: empty input");
  const KernelPath p = resolvePath(path);
  SIMDCV_TRACE_SCOPE("scaleAdd", p,
                     2 * static_cast<std::uint64_t>(a.rows()) * a.cols() *
                         a.channels() * depthSize(a.depth()));
  Mat out = std::move(dst);
  out.create(a.rows(), a.cols(), a.type());
  const std::size_t n = static_cast<std::size_t>(a.cols()) * a.channels();
  const auto run = detail::scaleFnFor(p);
  const bool flat = a.isContinuous() && out.isContinuous();
  forEachBand(a.rows(), n * depthSize(a.depth()), [&](runtime::Range band) {
    if (flat) {
      run(a.depth(), a.ptr<std::uint8_t>(band.begin),
          out.ptr<std::uint8_t>(band.begin),
          n * static_cast<std::size_t>(band.size()), alpha, beta);
    } else {
      for (int r = band.begin; r < band.end; ++r)
        run(a.depth(), a.ptr<std::uint8_t>(r), out.ptr<std::uint8_t>(r), n,
            alpha, beta);
    }
  });
  dst = std::move(out);
}

void addWeighted(const Mat& a, double alpha, const Mat& b, double beta,
                 double gamma, Mat& dst, KernelPath path) {
  checkPair(a, b, "addWeighted");
  const KernelPath p = resolvePath(path);
  SIMDCV_TRACE_SCOPE("addWeighted", p,
                     3 * static_cast<std::uint64_t>(a.rows()) * a.cols() *
                         a.channels() * depthSize(a.depth()));
  Mat out = (dst.sharesStorageWith(a) || dst.sharesStorageWith(b))
                ? Mat(a.rows(), a.cols(), a.type())
                : std::move(dst);
  out.create(a.rows(), a.cols(), a.type());
  const std::size_t n = static_cast<std::size_t>(a.cols()) * a.channels();
  const auto run = detail::weightedFnFor(p);
  const bool flat = a.isContinuous() && b.isContinuous() && out.isContinuous();
  forEachBand(a.rows(), 2 * n * depthSize(a.depth()), [&](runtime::Range band) {
    if (flat) {
      run(a.depth(), a.ptr<std::uint8_t>(band.begin),
          b.ptr<std::uint8_t>(band.begin), out.ptr<std::uint8_t>(band.begin),
          n * static_cast<std::size_t>(band.size()), alpha, beta, gamma);
    } else {
      for (int r = band.begin; r < band.end; ++r)
        run(a.depth(), a.ptr<std::uint8_t>(r), b.ptr<std::uint8_t>(r),
            out.ptr<std::uint8_t>(r), n, alpha, beta, gamma);
    }
  });
  dst = std::move(out);
}

double sum(const Mat& a, KernelPath path) {
  SIMDCV_REQUIRE(!a.empty(), "sum: empty input");
  const KernelPath p = resolvePath(path);
  SIMDCV_TRACE_SCOPE("sum", p,
                     static_cast<std::uint64_t>(a.rows()) * a.cols() *
                         a.channels() * depthSize(a.depth()));
  const std::size_t n = static_cast<std::size_t>(a.cols()) * a.channels();
  double total = 0;
  for (int r = 0; r < a.rows(); ++r) {
    const void* row = a.ptr<std::uint8_t>(r);
    double partial = 0;
    bool handled = false;
    if (p == KernelPath::Avx512)
      handled = detail::aops_avx512::sumRange(a.depth(), row, n, partial);
    else if (p == KernelPath::Avx2)
      handled = detail::aops_avx2::sumRange(a.depth(), row, n, partial);
    else if (p == KernelPath::Sse2)
      handled = detail::aops_sse2::sumRange(a.depth(), row, n, partial);
    else if (p == KernelPath::Neon)
      handled = detail::aops_neon::sumRange(a.depth(), row, n, partial);
    if (!handled) {
      partial = p == KernelPath::ScalarNoVec
                    ? detail::aops_novec::sumRange(a.depth(), row, n)
                    : detail::aops_autovec::sumRange(a.depth(), row, n);
    }
    total += partial;
  }
  return total;
}

double mean(const Mat& a, KernelPath path) {
  return sum(a, path) /
         (static_cast<double>(a.total()) * static_cast<double>(a.channels()));
}

namespace {

template <typename T>
void minMaxRows(const Mat& a, MinMaxResult& r) {
  for (int row = 0; row < a.rows(); ++row) {
    const T* p = a.ptr<T>(row);
    for (int col = 0; col < a.cols(); ++col) {
      const double v = static_cast<double>(p[col]);
      if (r.min_row < 0 || v < r.min_val) {
        r.min_val = v;
        r.min_row = row;
        r.min_col = col;
      }
      if (r.max_row < 0 || v > r.max_val) {
        r.max_val = v;
        r.max_row = row;
        r.max_col = col;
      }
    }
  }
}

}  // namespace

MinMaxResult minMaxLoc(const Mat& a, KernelPath /*path*/) {
  SIMDCV_REQUIRE(!a.empty(), "minMaxLoc: empty input");
  SIMDCV_REQUIRE(a.channels() == 1, "minMaxLoc: single channel only");
  SIMDCV_TRACE_SCOPE("minMaxLoc", prof::kNoPath,
                     static_cast<std::uint64_t>(a.rows()) * a.cols() *
                         depthSize(a.depth()));
  MinMaxResult r;
  switch (a.depth()) {
    case Depth::U8: minMaxRows<std::uint8_t>(a, r); break;
    case Depth::S8: minMaxRows<std::int8_t>(a, r); break;
    case Depth::U16: minMaxRows<std::uint16_t>(a, r); break;
    case Depth::S16: minMaxRows<std::int16_t>(a, r); break;
    case Depth::S32: minMaxRows<std::int32_t>(a, r); break;
    case Depth::F32: minMaxRows<float>(a, r); break;
    case Depth::F64: minMaxRows<double>(a, r); break;
  }
  return r;
}

}  // namespace simdcv::core
