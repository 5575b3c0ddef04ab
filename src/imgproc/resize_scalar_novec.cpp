// Bilinear resize scalar rows, vectorizer-disabled ablation build.
#define SIMDCV_SCALAR_NS novec
#include "imgproc/resize_scalar.inl"
