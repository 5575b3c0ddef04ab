// NEON intrinsics emulation for non-ARM hosts.
//
// Include via "simd/neon_compat.hpp" rather than directly; that wrapper
// selects the genuine <arm_neon.h> on ARM builds so the same sources run on
// real NEON hardware and (emulated, for functional validation) elsewhere.
//
// The emulation models exactly the vocabulary its callers speak: the
// intrinsics named by VecTraits<Neon> (simd/vec_neon.hpp), the paper's
// cvt32f16sPaper listing (core/convert_neon.cpp) and Figure 1's vaddq_f32
// loop (bench/fig1_scalar_vs_simd.cpp), plus the integer families the typed
// conformance laws sweep across the backend's integer lane types (load,
// store, dup, add, sub, saturating add/sub, min, max, compare gt/eq). The
// test_sources.neon_vocab ctest fails on any other definition none of them
// reaches, so a new intrinsic is added here together with its first caller.
//
// Each intrinsic has one implementation, a lane-wise model of the ARM
// semantics (wrapping plain ops, saturating vq* ops, all-ones compare masks
// that are false on NaN, NaN -> 0 and saturating float -> int converts),
// with no x86 fast path. Types are GCC vector extensions, the mechanism
// <arm_neon.h> itself uses, so plain lane ops are written as vector
// operators. Functions take runtime ints where arm_neon.h requires
// immediates; the range is asserted in debug builds.
#pragma once

#if defined(__ARM_NEON)
#error "neon_emu.hpp must not be included on a real NEON target"
#endif

#include <cassert>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

// ---- vector types -----------------------------------------------------------
typedef float float32_t;

typedef std::int16_t int16x4_t __attribute__((vector_size(8)));
typedef std::uint8_t uint8x8_t __attribute__((vector_size(8)));
typedef std::uint16_t uint16x4_t __attribute__((vector_size(8)));
typedef std::uint32_t uint32x2_t __attribute__((vector_size(8)));

typedef std::int16_t int16x8_t __attribute__((vector_size(16)));
typedef std::int32_t int32x4_t __attribute__((vector_size(16)));
typedef std::uint8_t uint8x16_t __attribute__((vector_size(16)));
typedef std::uint16_t uint16x8_t __attribute__((vector_size(16)));
typedef std::uint32_t uint32x4_t __attribute__((vector_size(16)));
typedef std::uint64_t uint64x2_t __attribute__((vector_size(16)));
typedef float float32x4_t __attribute__((vector_size(16)));

struct uint8x16x3_t {
  uint8x16_t val[3];
};

// ---- lane-wise models shared by the intrinsics below ------------------------
namespace simdcv::neon_emu_detail {

template <typename V>
using Elem = std::remove_reference_t<decltype(std::declval<V&>()[0])>;
template <typename V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(Elem<V>));

template <typename To, typename From>
inline To bitcast(From f) {
  static_assert(sizeof(To) == sizeof(From));
  To t;
  __builtin_memcpy(&t, &f, sizeof(t));
  return t;
}

/// The same lanes reinterpreted as unsigned, where + - * wrap modulo 2^n
/// (on signed GCC vector lanes overflow is undefined, as on scalars).
template <typename V>
struct UnsignedOf {
  typedef std::make_unsigned_t<Elem<V>> type
      __attribute__((vector_size(sizeof(V))));
};
template <typename V>
using Unsigned = typename UnsignedOf<V>::type;

template <typename V>
inline V wrapAdd(V a, V b) {
  return bitcast<V>(bitcast<Unsigned<V>>(a) + bitcast<Unsigned<V>>(b));
}
template <typename V>
inline V wrapSub(V a, V b) {
  return bitcast<V>(bitcast<Unsigned<V>>(a) - bitcast<Unsigned<V>>(b));
}
template <typename V>
inline V wrapMul(V a, V b) {
  return bitcast<V>(bitcast<Unsigned<V>>(a) * bitcast<Unsigned<V>>(b));
}

template <typename V>
inline V load(const void* p) {
  V r;
  __builtin_memcpy(&r, p, sizeof(r));
  return r;
}

template <typename V>
inline void store(void* p, V v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

template <typename V, typename E>
inline V dup(E x) {
  V r{};
  for (int i = 0; i < kLanes<V>; ++i) r[i] = x;
  return r;
}

/// Half `h` (0 low, 1 high) of a Q register.
template <typename D, typename Q>
inline D half(Q v, int h) {
  D r{};
  for (int i = 0; i < kLanes<D>; ++i) r[i] = v[h * kLanes<D> + i];
  return r;
}

template <typename Q, typename D>
inline Q combine(D lo, D hi) {
  Q r{};
  for (int i = 0; i < kLanes<D>; ++i) {
    r[i] = lo[i];
    r[kLanes<D> + i] = hi[i];
  }
  return r;
}

/// Lane-wise map into a vector of the same lane count.
template <typename R, typename V, typename F>
inline R map(V a, F f) {
  static_assert(kLanes<R> == kLanes<V>);
  R r{};
  for (int i = 0; i < kLanes<V>; ++i) r[i] = f(a[i]);
  return r;
}

template <typename V, typename F>
inline V map2(V a, V b, F f) {
  V r{};
  for (int i = 0; i < kLanes<V>; ++i) r[i] = f(a[i], b[i]);
  return r;
}

/// Saturate a wide value into T's range.
template <typename T, typename W>
inline T sat(W v) {
  constexpr W lo = static_cast<W>(std::numeric_limits<T>::min());
  constexpr W hi = static_cast<W>(std::numeric_limits<T>::max());
  return static_cast<T>(v < lo ? lo : (v > hi ? hi : v));
}

/// Pairwise widening add: lane i of the result is a[2i] + a[2i+1].
template <typename W, typename N>
inline W paddl(N a) {
  W r{};
  for (int i = 0; i < kLanes<W>; ++i)
    r[i] = static_cast<Elem<W>>(a[2 * i]) + static_cast<Elem<W>>(a[2 * i + 1]);
  return r;
}

/// Float -> s32 with ARM's rails: NaN -> 0, out of range saturates. `round`
/// maps an in-range float to the integral value it converts to.
template <typename F>
inline int32x4_t cvtS32(float32x4_t a, F round) {
  return map<int32x4_t>(a, [round](float x) -> std::int32_t {
    if (x != x) return 0;
    if (x >= 2147483648.0f) return std::numeric_limits<std::int32_t>::max();
    if (x <= -2147483648.0f) return std::numeric_limits<std::int32_t>::min();
    return static_cast<std::int32_t>(round(x));
  });
}

}  // namespace simdcv::neon_emu_detail

namespace neon_emu = simdcv::neon_emu_detail;

// ---- loads and stores (unaligned) -------------------------------------------
inline float32x4_t vld1q_f32(const float32_t* p) {
  return neon_emu::load<float32x4_t>(p);
}
inline int16x4_t vld1_s16(const std::int16_t* p) {
  return neon_emu::load<int16x4_t>(p);
}
inline uint8x8_t vld1_u8(const std::uint8_t* p) {
  return neon_emu::load<uint8x8_t>(p);
}
inline void vst1q_f32(float32_t* p, float32x4_t v) { neon_emu::store(p, v); }

/// Loads 16 three-byte records and splits them into their 3 channels.
inline uint8x16x3_t vld3q_u8(const std::uint8_t* p) {
  uint8x16x3_t r{};
  for (int i = 0; i < 16; ++i)
    for (int k = 0; k < 3; ++k) r.val[k][i] = p[3 * i + k];
  return r;
}

// ---- broadcast, lanes, halves -----------------------------------------------
inline float32x4_t vdupq_n_f32(float32_t v) {
  return neon_emu::dup<float32x4_t>(v);
}
inline int16x4_t vdup_n_s16(std::int16_t v) {
  return neon_emu::dup<int16x4_t>(v);
}
inline uint32x2_t vdup_n_u32(std::uint32_t v) {
  return neon_emu::dup<uint32x2_t>(v);
}

inline std::uint64_t vgetq_lane_u64(uint64x2_t v, int lane) {
  assert(lane >= 0 && lane < 2);
  return v[lane];
}

inline uint8x8_t vget_low_u8(uint8x16_t v) {
  return neon_emu::half<uint8x8_t>(v, 0);
}
inline uint8x8_t vget_high_u8(uint8x16_t v) {
  return neon_emu::half<uint8x8_t>(v, 1);
}
inline int16x4_t vget_low_s16(int16x8_t v) {
  return neon_emu::half<int16x4_t>(v, 0);
}
inline int16x4_t vget_high_s16(int16x8_t v) {
  return neon_emu::half<int16x4_t>(v, 1);
}
inline uint16x4_t vget_low_u16(uint16x8_t v) {
  return neon_emu::half<uint16x4_t>(v, 0);
}
inline uint8x16_t vcombine_u8(uint8x8_t lo, uint8x8_t hi) {
  return neon_emu::combine<uint8x16_t>(lo, hi);
}
inline int16x8_t vcombine_s16(int16x4_t lo, int16x4_t hi) {
  return neon_emu::combine<int16x8_t>(lo, hi);
}

// ---- bit-pattern reinterpretation ------------------------------------------
inline uint8x8_t vreinterpret_u8_u32(uint32x2_t v) {
  return neon_emu::bitcast<uint8x8_t>(v);
}
inline float32x4_t vreinterpretq_f32_u32(uint32x4_t v) {
  return neon_emu::bitcast<float32x4_t>(v);
}
inline uint32x4_t vreinterpretq_u32_f32(float32x4_t v) {
  return neon_emu::bitcast<uint32x4_t>(v);
}
inline int32x4_t vreinterpretq_s32_u32(uint32x4_t v) {
  return neon_emu::bitcast<int32x4_t>(v);
}
inline int16x8_t vreinterpretq_s16_u16(uint16x8_t v) {
  return neon_emu::bitcast<int16x8_t>(v);
}
inline uint16x8_t vreinterpretq_u16_s16(int16x8_t v) {
  return neon_emu::bitcast<uint16x8_t>(v);
}

// ---- integer Q-register families -------------------------------------------
// Defined at every integer lane type the backend uses, so that the typed
// conformance laws in tests/simd/neon_emu_test.cpp check the lane model's
// wrap, saturation rails, min/max lattice and compare-mask shape at each
// width. X(suffix, vector, compare mask, lane).
#define SIMDCV_NEON_EMU_INT_TYPES(X)            \
  X(u8, uint8x16_t, uint8x16_t, std::uint8_t)   \
  X(s16, int16x8_t, uint16x8_t, std::int16_t)   \
  X(u16, uint16x8_t, uint16x8_t, std::uint16_t) \
  X(s32, int32x4_t, uint32x4_t, std::int32_t)   \
  X(u32, uint32x4_t, uint32x4_t, std::uint32_t)

#define SIMDCV_NEON_EMU_INT_FAMILIES(SUF, V, M, E)                      \
  inline V vld1q_##SUF(const E* p) { return neon_emu::load<V>(p); }     \
  inline void vst1q_##SUF(E* p, V v) { neon_emu::store(p, v); }         \
  inline V vdupq_n_##SUF(E x) { return neon_emu::dup<V>(x); }           \
  inline V vaddq_##SUF(V a, V b) { return neon_emu::wrapAdd(a, b); }   \
  inline V vsubq_##SUF(V a, V b) { return neon_emu::wrapSub(a, b); }   \
  inline V vqaddq_##SUF(V a, V b) {                                     \
    return neon_emu::map2(a, b, [](E x, E y) {                          \
      return neon_emu::sat<E>(std::int64_t{x} + y);                     \
    });                                                                 \
  }                                                                     \
  inline V vqsubq_##SUF(V a, V b) {                                     \
    return neon_emu::map2(a, b, [](E x, E y) {                          \
      return neon_emu::sat<E>(std::int64_t{x} - y);                     \
    });                                                                 \
  }                                                                     \
  inline V vminq_##SUF(V a, V b) { return a < b ? a : b; }              \
  inline V vmaxq_##SUF(V a, V b) { return a > b ? a : b; }              \
  inline M vcgtq_##SUF(V a, V b) { return neon_emu::bitcast<M>(a > b); } \
  inline M vceqq_##SUF(V a, V b) { return neon_emu::bitcast<M>(a == b); }

SIMDCV_NEON_EMU_INT_TYPES(SIMDCV_NEON_EMU_INT_FAMILIES)
#undef SIMDCV_NEON_EMU_INT_FAMILIES
#undef SIMDCV_NEON_EMU_INT_TYPES

// ---- arithmetic (plain ops wrap modulo 2^n; vq* ops saturate) ---------------
inline float32x4_t vaddq_f32(float32x4_t a, float32x4_t b) { return a + b; }
inline float32x4_t vsubq_f32(float32x4_t a, float32x4_t b) { return a - b; }
inline float32x4_t vmulq_f32(float32x4_t a, float32x4_t b) { return a * b; }
inline int16x8_t vmulq_s16(int16x8_t a, int16x8_t b) {
  return neon_emu::wrapMul(a, b);
}

/// Clears the sign bit, NaN and -0.0 included.
inline float32x4_t vabsq_f32(float32x4_t a) {
  return neon_emu::bitcast<float32x4_t>(neon_emu::bitcast<uint32x4_t>(a) &
                                        0x7fffffffu);
}

// ---- widening ---------------------------------------------------------------
inline uint16x8_t vmovl_u8(uint8x8_t a) {
  return __builtin_convertvector(a, uint16x8_t);
}
inline uint32x4_t vmovl_u16(uint16x4_t a) {
  return __builtin_convertvector(a, uint32x4_t);
}
inline int32x4_t vmovl_s16(int16x4_t a) {
  return __builtin_convertvector(a, int32x4_t);
}

inline int32x4_t vmull_s16(int16x4_t a, int16x4_t b) {
  int32x4_t r{};
  for (int i = 0; i < 4; ++i) r[i] = std::int32_t{a[i]} * b[i];
  return r;
}
/// acc + a*b per lane, wrapping: two -32768*-32768 products sum to INT_MIN.
inline int32x4_t vmlal_s16(int32x4_t acc, int16x4_t a, int16x4_t b) {
  return neon_emu::wrapAdd(acc, vmull_s16(a, b));
}

inline uint16x8_t vpaddlq_u8(uint8x16_t a) {
  return neon_emu::paddl<uint16x8_t>(a);
}
inline uint32x4_t vpaddlq_u16(uint16x8_t a) {
  return neon_emu::paddl<uint32x4_t>(a);
}
inline uint64x2_t vpaddlq_u32(uint32x4_t a) {
  return neon_emu::paddl<uint64x2_t>(a);
}

// ---- compares (all-ones / all-zeros unsigned masks; NaN compares false) -----
inline uint32x4_t vcgtq_f32(float32x4_t a, float32x4_t b) {
  return neon_emu::bitcast<uint32x4_t>(a > b);
}
inline uint32x4_t vcltq_f32(float32x4_t a, float32x4_t b) {
  return neon_emu::bitcast<uint32x4_t>(a < b);
}

// ---- bitwise (vbic(a, b) is a & ~b) -----------------------------------------
inline uint32x4_t vandq_u32(uint32x4_t a, uint32x4_t b) { return a & b; }
inline int16x8_t vandq_s16(int16x8_t a, int16x8_t b) { return a & b; }
inline uint8x16_t vandq_u8(uint8x16_t a, uint8x16_t b) { return a & b; }
inline uint32x4_t vbicq_u32(uint32x4_t a, uint32x4_t b) { return a & ~b; }
inline int16x8_t vbicq_s16(int16x8_t a, int16x8_t b) { return a & ~b; }
inline uint8x16_t vbicq_u8(uint8x16_t a, uint8x16_t b) { return a & ~b; }
inline uint32x4_t vorrq_u32(uint32x4_t a, uint32x4_t b) { return a | b; }
inline uint8x16_t vorrq_u8(uint8x16_t a, uint8x16_t b) { return a | b; }
inline uint8x16_t veorq_u8(uint8x16_t a, uint8x16_t b) { return a ^ b; }

/// Per bit: mask ? a : b.
inline float32x4_t vbslq_f32(uint32x4_t m, float32x4_t a, float32x4_t b) {
  const uint32x4_t ua = neon_emu::bitcast<uint32x4_t>(a);
  const uint32x4_t ub = neon_emu::bitcast<uint32x4_t>(b);
  return neon_emu::bitcast<float32x4_t>((m & ua) | (~m & ub));
}

// ---- shifts by immediate (1..bits; unsigned logical, signed arithmetic) -----
inline uint16x8_t vshrq_n_u16(uint16x8_t a, int n) {
  assert(n >= 1 && n <= 16);
  return n == 16 ? uint16x8_t{} : a >> n;
}
inline int32x4_t vshrq_n_s32(int32x4_t a, int n) {
  assert(n >= 1 && n <= 32);
  return a >> (n == 32 ? 31 : n);
}

// ---- saturating narrows -----------------------------------------------------
inline int16x4_t vqmovn_s32(int32x4_t a) {
  return neon_emu::map<int16x4_t>(
      a, [](std::int32_t x) { return neon_emu::sat<std::int16_t>(x); });
}
inline uint8x8_t vqmovun_s16(int16x8_t a) {
  return neon_emu::map<uint8x8_t>(
      a, [](std::int16_t x) { return neon_emu::sat<std::uint8_t>(x); });
}

// ---- int <-> float conversions ----------------------------------------------
/// Truncates toward zero (the paper's ARMv7 listing).
inline int32x4_t vcvtq_s32_f32(float32x4_t a) {
  return neon_emu::cvtS32(a, [](float x) { return x; });
}
/// ARMv8 round to nearest, ties to even.
inline int32x4_t vcvtnq_s32_f32(float32x4_t a) {
  return neon_emu::cvtS32(a, [](float x) { return __builtin_roundevenf(x); });
}
inline float32x4_t vcvtq_f32_s32(int32x4_t a) {
  return __builtin_convertvector(a, float32x4_t);
}
