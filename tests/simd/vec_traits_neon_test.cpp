// VecTraits<Neon> conformance: the same suite as the x86 backends, minus
// the f64 lanes NEON's traits do not have. On ARM it runs the genuine
// intrinsics; elsewhere the emulation layer behind neon_compat.hpp.
#include "simd/vec_neon.hpp"

static bool backendSupported() { return true; }

#define SIMDCV_VEC_SUITE_NAME VecTraitsNeon
#define SIMDCV_VEC_BACKEND simdcv::simd::backend::Neon
#define SIMDCV_VEC_NO_F64
#include "vec_traits_suite.inl"
