// 3x3 median scalar rows, auto-vectorized build (paper "AUTO" arm).
#define SIMDCV_SCALAR_NS autovec
#include "imgproc/median_scalar.inl"
