// Internal row-level conversion entry point, shared between convertTo's Mat
// dispatch (convert.cpp) and the pipeline-graph fused executor (graph/).
// Not part of the public API — the umbrella header does not include this
// file. The contract mirrors convertTo exactly: identity scales route to the
// HAND kernel for the (src,dst) pair when the path has one (AVX2 falls back
// to the SSE2 arm for missing pairs), otherwise to the novec/autovec range
// kernels. Scaled conversions between U8/S16/F32 take the x86 paths' f64
// hand arm for whole vectors and the scalar range kernel for the tail;
// other pairs, NEON and the scalar paths take the scalar range kernels.
// The op is element-wise, so any row partition of a Mat conversion through
// this function is bit-identical to the whole-image call.
#pragma once

#include <cstddef>

#include "core/types.hpp"
#include "simd/features.hpp"

namespace simdcv::core::detail {

/// dst[i] = saturate_cast<dd>(src[i] * alpha + beta) over one flat row.
/// `path` must be resolved (not Default); convertTo resolves before calling.
void cvtRow(Depth sd, Depth dd, const void* src, void* dst, std::size_t n,
            double alpha, double beta, KernelPath path);

/// Scaled-conversion hand arms (convert_{sse2,avx2,avx512}.cpp): convert the
/// leading whole vectors of a U8/S16/F32 -> U8/S16/F32 row and return how
/// many elements they wrote; 0 for any other pair.
std::size_t cvtScaledSse2(Depth sd, Depth dd, const void* src, void* dst,
                          std::size_t n, double alpha, double beta);
std::size_t cvtScaledAvx2(Depth sd, Depth dd, const void* src, void* dst,
                          std::size_t n, double alpha, double beta);
std::size_t cvtScaledAvx512(Depth sd, Depth dd, const void* src, void* dst,
                            std::size_t n, double alpha, double beta);

}  // namespace simdcv::core::detail
