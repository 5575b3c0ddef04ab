// Internal dispatch surface for array_ops: flat-range kernels per path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/types.hpp"
#include "simd/features.hpp"

namespace simdcv::core::detail {

enum class BinOp : std::uint8_t { Add, Sub, AbsDiff, Min, Max, And, Or, Xor };

// Scalar arms (two TUs: vectorizer on / off).
namespace aops_autovec {
void binRange(BinOp op, Depth d, const void* a, const void* b, void* dst,
              std::size_t n);
void notRange(Depth d, const void* a, void* dst, std::size_t n);
void scaleRange(Depth d, const void* a, void* dst, std::size_t n, double alpha,
                double beta);
void weightedRange(Depth d, const void* a, const void* b, void* dst,
                   std::size_t n, double alpha, double beta, double gamma);
double sumRange(Depth d, const void* a, std::size_t n);
}  // namespace aops_autovec
namespace aops_novec {
void binRange(BinOp op, Depth d, const void* a, const void* b, void* dst,
              std::size_t n);
void notRange(Depth d, const void* a, void* dst, std::size_t n);
void scaleRange(Depth d, const void* a, void* dst, std::size_t n, double alpha,
                double beta);
void weightedRange(Depth d, const void* a, const void* b, void* dst,
                   std::size_t n, double alpha, double beta, double gamma);
double sumRange(Depth d, const void* a, std::size_t n);
}  // namespace aops_novec

// SIMD arms; return false when the (op, depth) pair has no hand kernel so
// the caller falls back to the scalar arm. scaleRange/weightedRange return
// the number of leading elements done (whole vectors of U8/S16/F32; 0 for
// other depths) and leave the rest to the scalar arm; NEON has no f64 lanes
// in its traits and keeps the scalar arm for those two. sadBlock is
// imgproc::findBestMatch's SAD of one placement, tail included.
namespace aops_sse2 {
bool binRange(BinOp op, Depth d, const void* a, const void* b, void* dst,
              std::size_t n);
bool sumRange(Depth d, const void* a, std::size_t n, double& out);
std::size_t scaleRange(Depth d, const void* a, void* dst, std::size_t n,
                       double alpha, double beta);
std::size_t weightedRange(Depth d, const void* a, const void* b, void* dst,
                          std::size_t n, double alpha, double beta,
                          double gamma);
std::uint64_t sadBlock(const std::uint8_t* a, std::size_t astep,
                       const std::uint8_t* b, std::size_t bstep, int w, int h,
                       std::uint64_t bound);
}  // namespace aops_sse2
namespace aops_avx2 {
bool binRange(BinOp op, Depth d, const void* a, const void* b, void* dst,
              std::size_t n);
bool sumRange(Depth d, const void* a, std::size_t n, double& out);
std::size_t scaleRange(Depth d, const void* a, void* dst, std::size_t n,
                       double alpha, double beta);
std::size_t weightedRange(Depth d, const void* a, const void* b, void* dst,
                          std::size_t n, double alpha, double beta,
                          double gamma);
std::uint64_t sadBlock(const std::uint8_t* a, std::size_t astep,
                       const std::uint8_t* b, std::size_t bstep, int w, int h,
                       std::uint64_t bound);
}  // namespace aops_avx2
namespace aops_avx512 {
bool binRange(BinOp op, Depth d, const void* a, const void* b, void* dst,
              std::size_t n);
bool sumRange(Depth d, const void* a, std::size_t n, double& out);
std::size_t scaleRange(Depth d, const void* a, void* dst, std::size_t n,
                       double alpha, double beta);
std::size_t weightedRange(Depth d, const void* a, const void* b, void* dst,
                          std::size_t n, double alpha, double beta,
                          double gamma);
std::uint64_t sadBlock(const std::uint8_t* a, std::size_t astep,
                       const std::uint8_t* b, std::size_t bstep, int w, int h,
                       std::uint64_t bound);
}  // namespace aops_avx512
namespace aops_neon {
bool binRange(BinOp op, Depth d, const void* a, const void* b, void* dst,
              std::size_t n);
bool sumRange(Depth d, const void* a, std::size_t n, double& out);
}  // namespace aops_neon

/// Complete scaleAdd / addWeighted row kernels for one path: the hand arm
/// where the path has one, the scalar arm for the rest of the row.
using ScaleFn = void (*)(Depth d, const void* a, void* dst, std::size_t n,
                         double alpha, double beta);
using WeightedFn = void (*)(Depth d, const void* a, const void* b, void* dst,
                            std::size_t n, double alpha, double beta,
                            double gamma);
ScaleFn scaleFnFor(KernelPath path);
WeightedFn weightedFnFor(KernelPath path);

}  // namespace simdcv::core::detail
