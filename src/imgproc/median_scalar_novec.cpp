// 3x3 median scalar rows, vectorizer-disabled ablation build.
#define SIMDCV_SCALAR_NS novec
#include "imgproc/median_scalar.inl"
