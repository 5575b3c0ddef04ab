#include "core/mat.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/saturate.hpp"

namespace simdcv {

namespace {

// Rows are padded so each row starts 64-byte aligned: SIMD paths benefit and
// it mirrors real image pipelines where step != width*elemSize is common.
constexpr std::size_t kRowAlign = 64;

std::size_t alignedStep(int cols, PixelType type) {
  const std::size_t raw = static_cast<std::size_t>(cols) * type.elemSize();
  return (raw + kRowAlign - 1) / kRowAlign * kRowAlign;
}

std::atomic<std::uint64_t> g_matAllocs{0};

}  // namespace

std::uint64_t matAllocationCount() noexcept {
  return g_matAllocs.load(std::memory_order_relaxed);
}

const char* toString(Depth d) noexcept {
  switch (d) {
    case Depth::U8: return "u8";
    case Depth::S8: return "s8";
    case Depth::U16: return "u16";
    case Depth::S16: return "s16";
    case Depth::S32: return "s32";
    case Depth::F32: return "f32";
    case Depth::F64: return "f64";
  }
  return "?";
}

std::string toString(PixelType t) {
  return std::string(toString(t.depth)) + "c" + std::to_string(t.channels);
}

Mat::Mat(int rows, int cols, PixelType type) { create(rows, cols, type); }

Mat::Mat(int rows, int cols, PixelType type, void* data, std::size_t step)
    : rows_(rows),
      cols_(cols),
      type_(type),
      step_(step),
      data_(static_cast<std::uint8_t*>(data)) {
  SIMDCV_REQUIRE(rows >= 0 && cols >= 0, "negative Mat dimensions");
  SIMDCV_REQUIRE(step >= static_cast<std::size_t>(cols) * type.elemSize(),
                 "step smaller than a row");
}

void Mat::create(int rows, int cols, PixelType type) {
  SIMDCV_REQUIRE(rows >= 0 && cols >= 0, "negative Mat dimensions");
  SIMDCV_REQUIRE(type.channels >= 1 && type.channels <= 4,
                 "channel count must be in [1,4]");
  if (rows == rows_ && cols == cols_ && type == type_ && buf_ != nullptr) {
    return;  // geometry unchanged: keep storage
  }
  rows_ = rows;
  cols_ = cols;
  type_ = type;
  step_ = alignedStep(cols, type);
  const std::size_t bytes = step_ * static_cast<std::size_t>(rows) + kRowAlign;
  if (bytes > 0) {
    // Over-allocate and align the base pointer to kRowAlign.
    g_matAllocs.fetch_add(1, std::memory_order_relaxed);
    // Not zero-filled: a fresh Mat's contents are unspecified, and every
    // kernel writes its whole output. zeros() and full() fill explicitly.
    buf_ = std::shared_ptr<std::uint8_t[]>(new std::uint8_t[bytes]);
#ifdef SIMDCV_POISON_ALLOC
    // Test builds only: a reader of unwritten elements sees the poison byte.
    std::memset(buf_.get(), SIMDCV_POISON_ALLOC, bytes);
#endif
    auto addr = reinterpret_cast<std::uintptr_t>(buf_.get());
    const std::uintptr_t aligned = (addr + kRowAlign - 1) / kRowAlign * kRowAlign;
    data_ = buf_.get() + (aligned - addr);
  } else {
    buf_.reset();
    data_ = nullptr;
  }
}

Mat Mat::clone() const {
  Mat out;
  copyTo(out);
  return out;
}

void Mat::copyTo(Mat& dst) const {
  dst.create(rows_, cols_, type_);
  const std::size_t rowBytes = static_cast<std::size_t>(cols_) * elemSize();
  for (int r = 0; r < rows_; ++r) {
    std::memcpy(dst.ptr<std::uint8_t>(r), ptr<const std::uint8_t>(r), rowBytes);
  }
}

Mat Mat::roi(const Rect& r) const {
  SIMDCV_REQUIRE(r.x >= 0 && r.y >= 0 && r.width >= 0 && r.height >= 0 &&
                     r.x + r.width <= cols_ && r.y + r.height <= rows_,
                 "ROI out of bounds");
  Mat view(*this);
  view.rows_ = r.height;
  view.cols_ = r.width;
  view.data_ = data_ + static_cast<std::size_t>(r.y) * step_ +
               static_cast<std::size_t>(r.x) * elemSize();
  return view;
}

Mat Mat::rowRange(int r0, int r1) const {
  SIMDCV_REQUIRE(0 <= r0 && r0 <= r1 && r1 <= rows_, "row range out of bounds");
  return roi(Rect(0, r0, cols_, r1 - r0));
}

namespace {

template <typename T>
void fillRows(Mat& m, double value) {
  const T v = saturate_cast<T>(value);
  const int n = m.cols() * m.channels();
  for (int r = 0; r < m.rows(); ++r) {
    T* p = m.ptr<T>(r);
    std::fill(p, p + n, v);
  }
}

}  // namespace

void Mat::setTo(double value) {
  switch (type_.depth) {
    case Depth::U8: fillRows<std::uint8_t>(*this, value); break;
    case Depth::S8: fillRows<std::int8_t>(*this, value); break;
    case Depth::U16: fillRows<std::uint16_t>(*this, value); break;
    case Depth::S16: fillRows<std::int16_t>(*this, value); break;
    case Depth::S32: fillRows<std::int32_t>(*this, value); break;
    case Depth::F32: fillRows<float>(*this, value); break;
    case Depth::F64: fillRows<double>(*this, value); break;
  }
}

void Mat::setZero() {
  const std::size_t rowBytes = static_cast<std::size_t>(cols_) * elemSize();
  for (int r = 0; r < rows_; ++r) std::memset(ptr<std::uint8_t>(r), 0, rowBytes);
}

Mat zeros(int rows, int cols, PixelType type) {
  Mat m(rows, cols, type);
  m.setZero();
  return m;
}

Mat full(int rows, int cols, PixelType type, double value) {
  Mat m(rows, cols, type);
  m.setTo(value);
  return m;
}

namespace {

template <typename T>
void diffStats(const Mat& a, const Mat& b, double tol, std::size_t& mism,
               double& maxd) {
  const int n = a.cols() * a.channels();
  for (int r = 0; r < a.rows(); ++r) {
    const T* pa = a.ptr<T>(r);
    const T* pb = b.ptr<T>(r);
    for (int c = 0; c < n; ++c) {
      const double da = static_cast<double>(pa[c]);
      const double db = static_cast<double>(pb[c]);
      if (da == db) {  // covers +/-Inf, where da-db is NaN
        // Exact comparison sees the sign of a zero: -0 vs +0 mismatches.
        if (tol == 0 && std::signbit(da) != std::signbit(db)) ++mism;
        continue;
      }
      const double d = std::abs(da - db);
      if (std::isnan(da) != std::isnan(db)) {
        ++mism;
        maxd = std::numeric_limits<double>::quiet_NaN();
      } else if (!(d <= tol)) {  // NaN-aware: NaN diff counts as mismatch
        if (!(std::isnan(da) && std::isnan(db))) {
          ++mism;
          maxd = std::max(maxd, d);
        }
      } else {
        maxd = std::max(maxd, d);
      }
    }
  }
}

void diffDispatch(const Mat& a, const Mat& b, double tol, std::size_t& mism,
                  double& maxd) {
  SIMDCV_REQUIRE(a.size() == b.size() && a.type() == b.type(),
                 "compare: geometry/type mismatch");
  switch (a.depth()) {
    case Depth::U8: diffStats<std::uint8_t>(a, b, tol, mism, maxd); break;
    case Depth::S8: diffStats<std::int8_t>(a, b, tol, mism, maxd); break;
    case Depth::U16: diffStats<std::uint16_t>(a, b, tol, mism, maxd); break;
    case Depth::S16: diffStats<std::int16_t>(a, b, tol, mism, maxd); break;
    case Depth::S32: diffStats<std::int32_t>(a, b, tol, mism, maxd); break;
    case Depth::F32: diffStats<float>(a, b, tol, mism, maxd); break;
    case Depth::F64: diffStats<double>(a, b, tol, mism, maxd); break;
  }
}

}  // namespace

std::size_t countMismatches(const Mat& a, const Mat& b, double tol) {
  std::size_t mism = 0;
  double maxd = 0;
  diffDispatch(a, b, tol, mism, maxd);
  return mism;
}

double maxAbsDiff(const Mat& a, const Mat& b) {
  std::size_t mism = 0;
  double maxd = 0;
  diffDispatch(a, b, std::numeric_limits<double>::infinity(), mism, maxd);
  return maxd;
}

}  // namespace simdcv
