// 1-D filter kernel generators: Gaussian and Sobel derivative kernels.
#pragma once

#include <vector>

#include "core/types.hpp"

namespace simdcv::imgproc {

/// Symmetric 1-D Gaussian of odd length `ksize`, normalized to sum 1.
/// sigma <= 0 derives sigma from ksize with OpenCV's rule:
///   sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8
std::vector<float> getGaussianKernel(int ksize, double sigma);

/// Pick an odd kernel size for the given sigma (OpenCV's heuristic for U8).
int gaussianKsizeFromSigma(double sigma);

/// Separable Sobel-family derivative kernels of length `ksize` (odd):
/// the result of smoothing [1 1]^(ksize-1-order) convolved with the
/// difference operator [-1 1]^order. ksize==3, order==1 gives [-1 0 1];
/// order==0 gives [1 2 1].
/// If `normalize`, the smoothing part is scaled to unit sum (i.e. divide by
/// 2^(ksize-1-order)).
std::vector<float> getDerivKernel(int order, int ksize, bool normalize = false);

/// Both kernels of a (dx, dy) derivative pair: kx applied along rows,
/// ky along columns.
void getDerivKernels(std::vector<float>& kx, std::vector<float>& ky, int dx,
                     int dy, int ksize, bool normalize = false);

}  // namespace simdcv::imgproc
