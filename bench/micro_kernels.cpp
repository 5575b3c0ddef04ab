// google-benchmark micro suite: every flat-range kernel x path x size, for
// fine-grained regression tracking (complement to the paper-protocol
// binaries).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/array_ops_detail.hpp"
#include "simdcv.hpp"

using namespace simdcv;

namespace {

KernelPath pathArg(const benchmark::State& state) {
  return static_cast<KernelPath>(state.range(1));
}

void setPathLabel(benchmark::State& state) {
  state.SetLabel(toString(static_cast<KernelPath>(state.range(1))));
}

void BM_Cvt32F16S(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> src(n);
  bench::Rng rng(1);
  for (auto& v : src) v = static_cast<float>(rng.uniform(-40000, 40000));
  std::vector<std::int16_t> dst(n);
  const KernelPath p = pathArg(state);
  if (!pathAvailable(p)) {
    state.SkipWithError("path unavailable");
    return;
  }
  for (auto _ : state) {
    core::cvt32f16s(src.data(), dst.data(), n, p);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  setPathLabel(state);
}

void BM_ThresholdU8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(n), dst(n);
  bench::Rng rng(2);
  for (auto& v : src) v = static_cast<std::uint8_t>(rng.next() & 0xff);
  const KernelPath p = pathArg(state);
  if (!pathAvailable(p)) {
    state.SkipWithError("path unavailable");
    return;
  }
  for (auto _ : state) {
    switch (p) {
      case KernelPath::Avx512:
        imgproc::avx512::threshU8(src.data(), dst.data(), n, 128, 255,
                                  imgproc::ThresholdType::Binary);
        break;
      case KernelPath::Avx2:
        imgproc::avx2::threshU8(src.data(), dst.data(), n, 128, 255,
                                imgproc::ThresholdType::Binary);
        break;
      case KernelPath::Sse2:
        imgproc::sse2::threshU8(src.data(), dst.data(), n, 128, 255,
                                imgproc::ThresholdType::Binary);
        break;
      case KernelPath::Neon:
        imgproc::neon::threshU8(src.data(), dst.data(), n, 128, 255,
                                imgproc::ThresholdType::Binary);
        break;
      case KernelPath::ScalarNoVec:
        imgproc::novec::threshU8(src.data(), dst.data(), n, 128, 255,
                                 imgproc::ThresholdType::Binary);
        break;
      default:
        imgproc::autovec::threshU8(src.data(), dst.data(), n, 128, 255,
                                   imgproc::ThresholdType::Binary);
        break;
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  setPathLabel(state);
}

void BM_RowConv(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int ksize = 7;
  std::vector<float> padded(static_cast<std::size_t>(width + ksize - 1));
  std::vector<float> out(static_cast<std::size_t>(width));
  std::vector<float> k(ksize, 1.0f / ksize);
  bench::Rng rng(3);
  for (auto& v : padded) v = static_cast<float>(rng.uniform(-1, 1));
  const auto fn = imgproc::detail::rowConvFor(pathArg(state));
  for (auto _ : state) {
    fn(padded.data(), out.data(), width, k.data(), ksize);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * width);
  setPathLabel(state);
}

void BM_ColConv(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int ksize = 7;
  std::vector<std::vector<float>> rows(
      ksize, std::vector<float>(static_cast<std::size_t>(width)));
  std::vector<const float*> taps;
  bench::Rng rng(4);
  for (auto& row : rows) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(-1, 1));
    taps.push_back(row.data());
  }
  std::vector<float> out(static_cast<std::size_t>(width));
  std::vector<float> k(ksize, 1.0f / ksize);
  const auto fn = imgproc::detail::colConvFor(pathArg(state));
  for (auto _ : state) {
    fn(taps.data(), out.data(), width, k.data(), ksize);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * width);
  setPathLabel(state);
}

void BM_MagnitudeS16(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int16_t> gx(n), gy(n);
  std::vector<std::uint8_t> dst(n);
  bench::Rng rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    gx[i] = static_cast<std::int16_t>(rng.next());
    gy[i] = static_cast<std::int16_t>(rng.next());
  }
  const KernelPath p = pathArg(state);
  if (!pathAvailable(p)) {
    state.SkipWithError("path unavailable");
    return;
  }
  for (auto _ : state) {
    switch (p) {
      case KernelPath::Avx512:
        imgproc::avx512::magnitudeS16(gx.data(), gy.data(), dst.data(), n);
        break;
      case KernelPath::Avx2:
        imgproc::avx2::magnitudeS16(gx.data(), gy.data(), dst.data(), n);
        break;
      case KernelPath::Sse2:
        imgproc::sse2::magnitudeS16(gx.data(), gy.data(), dst.data(), n);
        break;
      case KernelPath::Neon:
        imgproc::neon::magnitudeS16(gx.data(), gy.data(), dst.data(), n);
        break;
      case KernelPath::ScalarNoVec:
        imgproc::novec::magnitudeS16(gx.data(), gy.data(), dst.data(), n);
        break;
      default:
        imgproc::autovec::magnitudeS16(gx.data(), gy.data(), dst.data(), n);
        break;
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  setPathLabel(state);
}

void BM_GaussianBlurFull(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const Mat src = bench::makeScene(bench::Scene::Natural, {side, side}, 1);
  Mat dst;
  const KernelPath p = pathArg(state);
  for (auto _ : state) {
    imgproc::GaussianBlur(src, dst, {7, 7}, 1.0, 1.0,
                          imgproc::BorderType::Reflect101, p);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          side * side);
  setPathLabel(state);
}

void BM_Bgr2Gray(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> bgr(3 * n), gray(n);
  bench::Rng rng(6);
  for (auto& v : bgr) v = static_cast<std::uint8_t>(rng.next());
  const KernelPath p = pathArg(state);
  if (!pathAvailable(p)) {
    state.SkipWithError("path unavailable");
    return;
  }
  for (auto _ : state) {
    switch (p) {
      case KernelPath::Avx512:
        imgproc::fx_avx512::bgr2grayU8(bgr.data(), gray.data(), n, false);
        break;
      case KernelPath::Avx2:
        imgproc::fx_avx2::bgr2grayU8(bgr.data(), gray.data(), n, false);
        break;
      case KernelPath::Sse2:
        imgproc::fx_sse2::bgr2grayU8(bgr.data(), gray.data(), n, false);
        break;
      case KernelPath::Neon:
        imgproc::neon::bgr2grayU8(bgr.data(), gray.data(), n, false);
        break;
      case KernelPath::ScalarNoVec:
        imgproc::novec::bgr2grayU8(bgr.data(), gray.data(), n, false);
        break;
      default:
        imgproc::autovec::bgr2grayU8(bgr.data(), gray.data(), n, false);
        break;
    }
    benchmark::DoNotOptimize(gray.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  setPathLabel(state);
}

void BM_Sad(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> a(n), b(n);
  bench::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::uint8_t>(rng.next());
    b[i] = static_cast<std::uint8_t>(rng.next());
  }
  const KernelPath p = pathArg(state);
  if (!pathAvailable(p)) {
    state.SkipWithError("path unavailable");
    return;
  }
  for (auto _ : state) {
    std::uint64_t s = 0;
    const int w = static_cast<int>(n);
    const std::uint64_t bound = ~std::uint64_t{0};
    namespace cd = core::detail;
    switch (p) {
      case KernelPath::Avx512:
        s = cd::aops_avx512::sadBlock(a.data(), n, b.data(), n, w, 1, bound);
        break;
      case KernelPath::Avx2:
        s = cd::aops_avx2::sadBlock(a.data(), n, b.data(), n, w, 1, bound);
        break;
      case KernelPath::Sse2:
        s = cd::aops_sse2::sadBlock(a.data(), n, b.data(), n, w, 1, bound);
        break;
      case KernelPath::Neon: s = imgproc::neon::sadRange(a.data(), b.data(), n); break;
      case KernelPath::ScalarNoVec:
        s = imgproc::novec::sadRange(a.data(), b.data(), n);
        break;
      default: s = imgproc::autovec::sadRange(a.data(), b.data(), n); break;
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  setPathLabel(state);
}

std::vector<std::int64_t> pathRange() {
  return {static_cast<std::int64_t>(KernelPath::ScalarNoVec),
          static_cast<std::int64_t>(KernelPath::Auto),
          static_cast<std::int64_t>(KernelPath::Sse2),
          static_cast<std::int64_t>(KernelPath::Avx2),
          static_cast<std::int64_t>(KernelPath::Avx512),
          static_cast<std::int64_t>(KernelPath::Neon)};
}

}  // namespace

BENCHMARK(BM_Cvt32F16S)->ArgsProduct({{4096, 1 << 20}, pathRange()});
BENCHMARK(BM_ThresholdU8)->ArgsProduct({{4096, 1 << 20}, pathRange()});
BENCHMARK(BM_RowConv)->ArgsProduct({{640, 3264}, pathRange()});
BENCHMARK(BM_ColConv)->ArgsProduct({{640, 3264}, pathRange()});
BENCHMARK(BM_MagnitudeS16)->ArgsProduct({{1 << 20}, pathRange()});
BENCHMARK(BM_GaussianBlurFull)->ArgsProduct({{640}, pathRange()});
BENCHMARK(BM_Bgr2Gray)->ArgsProduct({{1 << 18}, pathRange()});
BENCHMARK(BM_Sad)->ArgsProduct({{1 << 18}, pathRange()});

BENCHMARK_MAIN();
