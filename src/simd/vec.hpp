// Width-generic SIMD backend tags — the compile-time capability factory's
// vocabulary (DESIGN.md §15).
//
// Each hot kernel family is written ONCE as a template over a VecTraits
// backend (see the *_kernels.inl bodies next to each family) and
// instantiated per backend in that backend's sole -m-flagged translation
// unit. The traits expose a fixed op vocabulary (lane counts, load/store,
// widen/narrow, saturating ops, order-correct packs) with identical
// semantics at every width, so one body is bit-exact across backends by
// construction.
//
// This header is ISA-free: it defines the tags, the primary template and
// the byte tables the x86 traits share.
// The per-backend specializations live in vec_sse2.hpp / vec_avx2.hpp /
// vec_avx512.hpp and may ONLY be included from translation units compiled
// with that backend's -m flags (the TU isolation rule — see DESIGN.md §15).
#pragma once

namespace simdcv::simd {

namespace backend {
/// 128-bit x86 baseline (the whole build is compiled -msse2).
struct Sse2 {};
/// 256-bit x86; TUs compiled -mavx2, execution runtime-guarded.
struct Avx2 {};
/// 512-bit x86 (F+BW+DQ+VL); TUs compiled -mavx512*, runtime-guarded
/// including the XGETBV zmm-state check.
struct Avx512 {};
}  // namespace backend

/// Per-backend SIMD capability traits. Specializations provide:
///
///   types      vf32 / vs32 / vs16 / vu8 (vs16 doubles as the u16 shape)
///   constants  name, bits, f32_lanes (= bits/32), s16_lanes, u8_lanes
///   f32        loadF32 storeF32 setF32 addF32 subF32 mulF32 minF32 maxF32
///              absF32 cmpGtF32 andF32 andNotF32 orF32
///   s32        cvtF32toS32Sat (NaN->0, +overflow->INT_MAX fixups baked in)
///              cvtS32toF32
///   widen      loadU8AsS32 loadS16AsS32 loadU8AsS16 (zero/sign extend)
///   f64        vf64, f64_lanes (= bits/64), vf64x2 {lo, hi} = f32_lanes
///              doubles in element order; setF64 addF64 mulF64 minF64
///              maxF64; loadU8AsF64 loadS16AsF64 loadF32AsF64 (exact
///              widens); cvtF64toS32Sat (round-half-even, NaN->0, clamped
///              to the s32 rails before converting — saturate_cast<int32_t>
///              of a double); cvtF64toF32 (static_cast<float> rounding)
///   s16/u16    loadS16 storeS16 setS16 zeroS16 addS16 subS16 (both
///              wrapping) addSatS16 subSatS16 mulLoS16 minS16 maxS16
///              cmpGtS16 (signed) shrLogU16<imm>; maddPairS16(a, b,
///              wa, wb) -> vs32x2 {lo, hi} = a[i]*wa + b[i]*wb in element
///              order (pairwise multiply-add, PMADDWD on zipped pairs)
///   s32        addS32 shrS32<imm> (arithmetic)
///   u8         loadU8 storeU8 setU8 addSatU8 subSatU8 minU8 maxU8 cmpGtU8
///              andU8 andNotU8 orU8 xorU8; loadU8Partial(p, n < u8_lanes)
///              (zeros above n, reads nothing past p + n); widenU8 ->
///              vs16x2 {lo, hi} (zero-extend, element order);
///              deinterleave3U8(p) -> vu8x3 {c0, c1, c2}: 3*u8_lanes
///              interleaved bytes split into channel planes (NEON's vld3q_u8)
///   packs      packS32toS16 packS16toU8 packS32x4toU8 — element-order
///              correct: the result is the saturated concatenation of the
///              inputs, with any lane-crossing fixups done inside the trait
///   reduce     sadSumU8 (horizontal u8 sum via SAD, returns uint64)
///
/// Masks are all-ones/all-zeros vectors of the compared shape (cmpGtU8
/// yields a vu8 mask, cmpGtS16 a vs16 mask, cmpGtF32 a vf32 mask) so select
/// idioms written as and/andNot work identically on every backend,
/// including AVX-512 where the trait converts the native k-mask back to a
/// vector. vs16 and vu8 are the same integer register type on every x86
/// backend, so the u8 bitwise ops (andU8, andNotU8) select s16 lanes too.
template <class Backend>
struct VecTraits;

namespace detail {
/// Byte-shuffle controls of the x86 3-channel deinterleave: kSplit3.m[c][k]
/// moves channel c's bytes of 16-byte chunk k of a 48-byte group (byte
/// 3i + c - 16k to lane i) and zeroes every other lane (-128 = 0x80).
struct Split3 {
  signed char m[3][3][16];
};
constexpr Split3 makeSplit3() {
  Split3 t{};
  for (int c = 0; c < 3; ++c)
    for (int k = 0; k < 3; ++k)
      for (int i = 0, src = c - 16 * k; i < 16; ++i, src += 3)
        t.m[c][k][i] =
            static_cast<signed char>(src >= 0 && src < 16 ? src : -128);
  return t;
}
inline constexpr Split3 kSplit3 = makeSplit3();
}  // namespace detail

}  // namespace simdcv::simd
