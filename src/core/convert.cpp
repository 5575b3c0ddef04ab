// Dispatch layer for conversions: resolves KernelPath, routes each (src,dst)
// depth pair to the best kernel available on that path, and handles Mat
// geometry (row-by-row for non-continuous ROIs).
#include "core/convert.hpp"

#include "core/convert_detail.hpp"
#include "core/saturate.hpp"
#include "prof/prof.hpp"
#include "runtime/parallel.hpp"

namespace simdcv::core {

namespace {

template <class S, class D>
void callCvt(void (*fn)(const S*, D*, std::size_t), const void* src, void* dst,
             std::size_t n) {
  fn(static_cast<const S*>(src), static_cast<D*>(dst), n);
}

// One hand backend's six identity-scale kernels (hasHandKernel's pair set).
// Returns true if one of them ran.
template <auto F32S16, auto F32U8, auto U8F32, auto S16F32, auto U8S16,
          auto S16U8>
bool runPairs(Depth sd, Depth dd, const void* src, void* dst, std::size_t n) {
  const auto is = [&](Depth s, Depth d) { return sd == s && dd == d; };
  if (is(Depth::F32, Depth::S16)) callCvt(F32S16, src, dst, n);
  else if (is(Depth::F32, Depth::U8)) callCvt(F32U8, src, dst, n);
  else if (is(Depth::U8, Depth::F32)) callCvt(U8F32, src, dst, n);
  else if (is(Depth::S16, Depth::F32)) callCvt(S16F32, src, dst, n);
  else if (is(Depth::U8, Depth::S16)) callCvt(U8S16, src, dst, n);
  else if (is(Depth::S16, Depth::U8)) callCvt(S16U8, src, dst, n);
  else return false;
  return true;
}

// Identity-scale HAND kernel router. Returns true if a SIMD kernel ran.
bool runHandKernel(Depth sd, Depth dd, const void* src, void* dst,
                   std::size_t n, KernelPath path) {
  switch (path) {
    case KernelPath::Avx512:
      return runPairs<&avx512::cvt32f16s, &avx512::cvt32f8u, &avx512::cvt8u32f,
                      &avx512::cvt16s32f, &avx512::cvt8u16s,
                      &avx512::cvt16s8u>(sd, dd, src, dst, n);
    case KernelPath::Avx2:
      return runPairs<&avx2::cvt32f16s, &avx2::cvt32f8u, &avx2::cvt8u32f,
                      &avx2::cvt16s32f, &avx2::cvt8u16s, &avx2::cvt16s8u>(
          sd, dd, src, dst, n);
    case KernelPath::Sse2:
      return runPairs<&sse2::cvt32f16s, &sse2::cvt32f8u, &sse2::cvt8u32f,
                      &sse2::cvt16s32f, &sse2::cvt8u16s, &sse2::cvt16s8u>(
          sd, dd, src, dst, n);
    case KernelPath::Neon:
      return runPairs<&neon::cvt32f16s, &neon::cvt32f8u, &neon::cvt8u32f,
                      &neon::cvt16s32f, &neon::cvt8u16s, &neon::cvt16s8u>(
          sd, dd, src, dst, n);
    default:
      return false;
  }
}

}  // namespace

namespace detail {

void cvtRow(Depth sd, Depth dd, const void* src, void* dst, std::size_t n,
            double alpha, double beta, KernelPath path) {
  const bool identity = alpha == 1.0 && beta == 0.0;
  if (identity) {
    if (sd == dd) {
      std::memcpy(dst, src, n * depthSize(sd));
      return;
    }
    if (runHandKernel(sd, dd, src, dst, n, path)) return;
    if (path == KernelPath::ScalarNoVec) {
      novec::cvtRange(sd, dd, src, dst, n);
    } else {
      autovec::cvtRange(sd, dd, src, dst, n);
    }
    return;
  }
  if (path == KernelPath::ScalarNoVec) {
    novec::cvtRangeScaled(sd, dd, src, dst, n, alpha, beta);
    return;
  }
  // Hand arm (x86) for the leading whole vectors, scalar arm for the rest;
  // Auto and Neon (no f64 lanes) run the scalar arm for all of it.
  std::size_t done = 0;
  if (path == KernelPath::Avx512)
    done = cvtScaledAvx512(sd, dd, src, dst, n, alpha, beta);
  else if (path == KernelPath::Avx2)
    done = cvtScaledAvx2(sd, dd, src, dst, n, alpha, beta);
  else if (path == KernelPath::Sse2)
    done = cvtScaledSse2(sd, dd, src, dst, n, alpha, beta);
  autovec::cvtRangeScaled(
      sd, dd, static_cast<const std::uint8_t*>(src) + done * depthSize(sd),
      static_cast<std::uint8_t*>(dst) + done * depthSize(dd), n - done, alpha,
      beta);
}

}  // namespace detail

bool hasHandKernel(Depth sdepth, Depth ddepth, KernelPath path) {
  if (path != KernelPath::Sse2 && path != KernelPath::Avx2 &&
      path != KernelPath::Avx512 && path != KernelPath::Neon)
    return false;
  // All HAND paths implement the same pair set, from one width-generic
  // body.
  return (sdepth == Depth::F32 && (ddepth == Depth::S16 || ddepth == Depth::U8)) ||
         (sdepth == Depth::U8 && (ddepth == Depth::F32 || ddepth == Depth::S16)) ||
         (sdepth == Depth::S16 && (ddepth == Depth::F32 || ddepth == Depth::U8));
}

void convertTo(const Mat& src, Mat& dst, Depth ddepth, double alpha,
               double beta, KernelPath path) {
  SIMDCV_REQUIRE(!src.empty(), "convertTo: empty source");
  const std::uint64_t bytes = static_cast<std::uint64_t>(src.rows()) *
                              src.cols() * src.channels() *
                              (depthSize(src.depth()) + depthSize(ddepth));
  const KernelPath p = resolvePath(path);
  SIMDCV_TRACE_SCOPE("convertTo", p, bytes);
  Mat out;
  // Writing in place (dst sharing storage with src) is safe only for
  // same-or-smaller element size; be conservative and detach when shared.
  if (dst.sharesStorageWith(src)) {
    out = Mat(src.rows(), src.cols(), PixelType(ddepth, src.channels()));
  } else {
    out = std::move(dst);
    out.create(src.rows(), src.cols(), PixelType(ddepth, src.channels()));
  }
  const std::size_t n = static_cast<std::size_t>(src.cols()) * src.channels();
  // Per-element conversion: bands are pure row partitions, so banded output
  // is bit-identical to the single-threaded walk.
  const bool flat = src.isContinuous() && out.isContinuous();
  const int grain = runtime::parallelThreshold(
      n * std::max(depthSize(src.depth()), depthSize(ddepth)), src.rows());
  runtime::parallel_for(
      {0, src.rows()},
      [&](runtime::Range band) {
        if (flat) {
          detail::cvtRow(src.depth(), ddepth, src.ptr<std::uint8_t>(band.begin),
                 out.ptr<std::uint8_t>(band.begin),
                 n * static_cast<std::size_t>(band.size()), alpha, beta, p);
        } else {
          for (int r = band.begin; r < band.end; ++r)
            detail::cvtRow(src.depth(), ddepth, src.ptr<std::uint8_t>(r),
                   out.ptr<std::uint8_t>(r), n, alpha, beta, p);
        }
      },
      grain);
  dst = std::move(out);
}

void cvt32f16s(const float* src, std::int16_t* dst, std::size_t n,
               KernelPath path) {
  SIMDCV_TRACE_SCOPE("cvt32f16s", resolvePath(path),
                     n * (sizeof(float) + sizeof(std::int16_t)));
  switch (resolvePath(path)) {
    case KernelPath::Avx512: avx512::cvt32f16s(src, dst, n); break;
    case KernelPath::Avx2: avx2::cvt32f16s(src, dst, n); break;
    case KernelPath::Sse2: sse2::cvt32f16s(src, dst, n); break;
    case KernelPath::Neon: neon::cvt32f16s(src, dst, n); break;
    case KernelPath::ScalarNoVec: novec::cvt32f16s(src, dst, n); break;
    default: autovec::cvt32f16s(src, dst, n); break;
  }
}

void cvt32f16sNeonPaper(const float* src, std::int16_t* dst, std::size_t n) {
  neon::cvt32f16sPaper(src, dst, n);
}

}  // namespace simdcv::core
