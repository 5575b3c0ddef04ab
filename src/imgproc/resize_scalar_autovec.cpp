// Bilinear resize scalar rows, auto-vectorized build (paper "AUTO" arm).
#define SIMDCV_SCALAR_NS autovec
#include "imgproc/resize_scalar.inl"
