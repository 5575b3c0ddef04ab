// Mat: the dense 2-D image/array container at the heart of the library,
// modelled on cv::Mat. Reference-counted storage, row stride ("step") in
// bytes, zero-copy ROI views, and typed row/element accessors.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "core/types.hpp"

namespace simdcv {

class Mat {
 public:
  /// Empty matrix (rows == cols == 0, no storage).
  Mat() = default;

  /// Allocate a rows x cols matrix of the given pixel type (uninitialized).
  Mat(int rows, int cols, PixelType type);
  Mat(Size size, PixelType type) : Mat(size.height, size.width, type) {}

  /// Wrap caller-owned memory without copying (no ownership taken).
  /// `step` is the byte distance between successive rows.
  Mat(int rows, int cols, PixelType type, void* data, std::size_t step);

  Mat(const Mat&) = default;             // shallow copy (shares storage)
  Mat& operator=(const Mat&) = default;  // shallow copy (shares storage)
  Mat(Mat&&) noexcept = default;
  Mat& operator=(Mat&&) noexcept = default;

  /// Reallocate if geometry/type differ; keeps storage if they match. New
  /// storage is uninitialized (use zeros() or setTo() for a filled Mat).
  void create(int rows, int cols, PixelType type);
  void create(Size size, PixelType type) { create(size.height, size.width, type); }

  /// Deep copy.
  Mat clone() const;
  /// Deep copy into `dst` (reallocating as needed).
  void copyTo(Mat& dst) const;

  /// Zero-copy view of the given rectangle.
  Mat roi(const Rect& r) const;
  /// Zero-copy view of rows [r0, r1).
  Mat rowRange(int r0, int r1) const;

  /// Fill every element (all channels) with `value` converted to the
  /// element depth via saturate_cast.
  void setTo(double value);
  void setZero();

  // -- geometry ---------------------------------------------------------
  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }
  Size size() const noexcept { return {cols_, rows_}; }
  PixelType type() const noexcept { return type_; }
  Depth depth() const noexcept { return type_.depth; }
  int channels() const noexcept { return type_.channels; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }
  std::size_t step() const noexcept { return step_; }
  std::size_t elemSize() const noexcept { return type_.elemSize(); }
  std::size_t elemSize1() const noexcept { return type_.elemSize1(); }
  /// Number of pixels.
  std::size_t total() const noexcept {
    return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  }
  /// True if rows are contiguous in memory (step == cols * elemSize).
  bool isContinuous() const noexcept {
    return rows_ <= 1 || step_ == static_cast<std::size_t>(cols_) * elemSize();
  }
  /// True if this Mat shares storage with `other`.
  bool sharesStorageWith(const Mat& other) const noexcept {
    return buf_ && buf_ == other.buf_;
  }
  /// True if this Mat owns its buffer and no other Mat references it (not
  /// wrapped caller memory, not shared with a copy or view), so writing into
  /// it is visible to no one else.
  bool ownsStorageAlone() const noexcept {
    return buf_ && buf_.use_count() == 1;
  }

  // -- raw access -------------------------------------------------------
  std::uint8_t* data() noexcept { return data_; }
  const std::uint8_t* data() const noexcept { return data_; }

  template <typename T>
  T* ptr(int row = 0) {
    return reinterpret_cast<T*>(data_ + static_cast<std::size_t>(row) * step_);
  }
  template <typename T>
  const T* ptr(int row = 0) const {
    return reinterpret_cast<const T*>(data_ + static_cast<std::size_t>(row) * step_);
  }

  /// Element access; `col` indexes elements (channel-interleaved), i.e. for a
  /// C3 image use at<T>(r, c*3 + ch).
  template <typename T>
  T& at(int row, int col) {
    return ptr<T>(row)[col];
  }
  template <typename T>
  const T& at(int row, int col) const {
    return ptr<T>(row)[col];
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  PixelType type_{};
  std::size_t step_ = 0;
  std::shared_ptr<std::uint8_t[]> buf_;  // owning buffer (null for wrapped)
  std::uint8_t* data_ = nullptr;         // start of row 0 (may point into ROI)
};

/// Process-wide count of Mat buffer allocations (create() reallocation
/// events). Steady-state pipelines that reuse scratch correctly keep this
/// flat across repeated calls — the invariant the edge-scratch tests assert.
std::uint64_t matAllocationCount() noexcept;

/// Factory helpers.
Mat zeros(int rows, int cols, PixelType type);
Mat full(int rows, int cols, PixelType type, double value);

/// Deep element-wise comparison utilities (exact for integer depths,
/// tolerance for float depths). Returns the number of mismatching elements.
/// At tol == 0 the comparison is bitwise up to NaN payloads: -0 and +0
/// mismatch, NaN matches NaN.
std::size_t countMismatches(const Mat& a, const Mat& b, double tol = 0.0);
/// Maximum absolute element difference (NaN-propagating for float inputs).
double maxAbsDiff(const Mat& a, const Mat& b);

}  // namespace simdcv
