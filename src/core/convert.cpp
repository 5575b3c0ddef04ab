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

// Identity-scale HAND kernel router. Returns true if a SIMD kernel ran.
bool runHandKernel(Depth sd, Depth dd, const void* src, void* dst,
                   std::size_t n, KernelPath path) {
  // The width-generic bodies instantiate the full pair set on every x86
  // backend, so the avx512/avx2/sse2 routers are structurally identical.
  if (path == KernelPath::Avx512) {
    if (sd == Depth::F32 && dd == Depth::S16) {
      avx512::cvt32f16s(static_cast<const float*>(src), static_cast<std::int16_t*>(dst), n);
      return true;
    }
    if (sd == Depth::F32 && dd == Depth::U8) {
      avx512::cvt32f8u(static_cast<const float*>(src), static_cast<std::uint8_t*>(dst), n);
      return true;
    }
    if (sd == Depth::U8 && dd == Depth::F32) {
      avx512::cvt8u32f(static_cast<const std::uint8_t*>(src), static_cast<float*>(dst), n);
      return true;
    }
    if (sd == Depth::S16 && dd == Depth::F32) {
      avx512::cvt16s32f(static_cast<const std::int16_t*>(src), static_cast<float*>(dst), n);
      return true;
    }
    if (sd == Depth::U8 && dd == Depth::S16) {
      avx512::cvt8u16s(static_cast<const std::uint8_t*>(src), static_cast<std::int16_t*>(dst), n);
      return true;
    }
    if (sd == Depth::S16 && dd == Depth::U8) {
      avx512::cvt16s8u(static_cast<const std::int16_t*>(src), static_cast<std::uint8_t*>(dst), n);
      return true;
    }
    return false;
  }
  if (path == KernelPath::Avx2) {
    if (sd == Depth::F32 && dd == Depth::S16) {
      avx2::cvt32f16s(static_cast<const float*>(src), static_cast<std::int16_t*>(dst), n);
      return true;
    }
    if (sd == Depth::F32 && dd == Depth::U8) {
      avx2::cvt32f8u(static_cast<const float*>(src), static_cast<std::uint8_t*>(dst), n);
      return true;
    }
    if (sd == Depth::U8 && dd == Depth::F32) {
      avx2::cvt8u32f(static_cast<const std::uint8_t*>(src), static_cast<float*>(dst), n);
      return true;
    }
    if (sd == Depth::S16 && dd == Depth::F32) {
      avx2::cvt16s32f(static_cast<const std::int16_t*>(src), static_cast<float*>(dst), n);
      return true;
    }
    if (sd == Depth::U8 && dd == Depth::S16) {
      avx2::cvt8u16s(static_cast<const std::uint8_t*>(src), static_cast<std::int16_t*>(dst), n);
      return true;
    }
    if (sd == Depth::S16 && dd == Depth::U8) {
      avx2::cvt16s8u(static_cast<const std::int16_t*>(src), static_cast<std::uint8_t*>(dst), n);
      return true;
    }
    return false;
  }
  if (path == KernelPath::Sse2) {
    if (sd == Depth::F32 && dd == Depth::S16) {
      sse2::cvt32f16s(static_cast<const float*>(src), static_cast<std::int16_t*>(dst), n);
      return true;
    }
    if (sd == Depth::F32 && dd == Depth::U8) {
      sse2::cvt32f8u(static_cast<const float*>(src), static_cast<std::uint8_t*>(dst), n);
      return true;
    }
    if (sd == Depth::U8 && dd == Depth::F32) {
      sse2::cvt8u32f(static_cast<const std::uint8_t*>(src), static_cast<float*>(dst), n);
      return true;
    }
    if (sd == Depth::S16 && dd == Depth::F32) {
      sse2::cvt16s32f(static_cast<const std::int16_t*>(src), static_cast<float*>(dst), n);
      return true;
    }
    if (sd == Depth::U8 && dd == Depth::S16) {
      sse2::cvt8u16s(static_cast<const std::uint8_t*>(src), static_cast<std::int16_t*>(dst), n);
      return true;
    }
    if (sd == Depth::S16 && dd == Depth::U8) {
      sse2::cvt16s8u(static_cast<const std::int16_t*>(src), static_cast<std::uint8_t*>(dst), n);
      return true;
    }
  } else if (path == KernelPath::Neon) {
    if (sd == Depth::F32 && dd == Depth::S16) {
      neon::cvt32f16s(static_cast<const float*>(src), static_cast<std::int16_t*>(dst), n);
      return true;
    }
    if (sd == Depth::F32 && dd == Depth::U8) {
      neon::cvt32f8u(static_cast<const float*>(src), static_cast<std::uint8_t*>(dst), n);
      return true;
    }
    if (sd == Depth::U8 && dd == Depth::F32) {
      neon::cvt8u32f(static_cast<const std::uint8_t*>(src), static_cast<float*>(dst), n);
      return true;
    }
    if (sd == Depth::S16 && dd == Depth::F32) {
      neon::cvt16s32f(static_cast<const std::int16_t*>(src), static_cast<float*>(dst), n);
      return true;
    }
    if (sd == Depth::U8 && dd == Depth::S16) {
      neon::cvt8u16s(static_cast<const std::uint8_t*>(src), static_cast<std::int16_t*>(dst), n);
      return true;
    }
    if (sd == Depth::S16 && dd == Depth::U8) {
      neon::cvt16s8u(static_cast<const std::int16_t*>(src), static_cast<std::uint8_t*>(dst), n);
      return true;
    }
  }
  return false;
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
  // All HAND paths implement the same pair set (the x86 ones from one
  // width-generic body).
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
