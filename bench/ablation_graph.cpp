// Graph-fusion ablation: the pipeline-graph engine's streaming schedule vs
// its stage-by-stage schedule for three declared chains, at the paper's
// resolutions, per kernel path. Both schedules are bit-exact (checked by
// `check_all --only graph`), so each ratio isolates cache blocking alone —
// the staged walk round-trips every intermediate image through memory, the
// fused walk keeps O(ksize)-row rings resident.
//
// Chains:
//   edge       makeEdgeGraph: sobelX/sobelY (s16) -> magnitude -> threshold
//              (the chain imgproc::edgeDetect runs)
//   blur-sobel makeBlurSobelThresholdGraph: gauss5 -> sobel3 (s16) ->
//              threshold (a chain no hand-fused kernel covers)
//   photo      makePhotoGraph: cvt f32 -> blur5 -> tone pointwise -> blur7
//              -> addWeighted (multi-consumer) -> cvt u8 (f32 working depth,
//              the heaviest intermediate footprint)
//
// Emits BENCH_graph.json in the working directory. SIMDCV_BENCH_SMOKE=1
// shrinks the protocol to 2 images x 1 cycle (Protocol::fromArgs).
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "simdcv.hpp"

namespace {

using namespace simdcv;
using namespace simdcv::bench;

struct Chain {
  const char* name;
  graph::Graph g;
};

std::vector<Chain> chains() {
  std::vector<Chain> c;
  c.push_back({"edge", graph::makeEdgeGraph(Depth::U8, 100.0, 3,
                                            imgproc::BorderType::Reflect101)});
  c.push_back({"blur-sobel",
               graph::makeBlurSobelThresholdGraph(
                   Depth::U8, 5, 1.1, 3, 700.0,
                   imgproc::BorderType::Reflect101)});
  c.push_back({"photo", graph::makePhotoGraph(5, 0.9, 7, 1.4, 1.12, -8.0,
                                              1.4)});
  return c;
}

struct Row {
  std::string chain;
  std::string resolution;
  std::string path;
  std::size_t staged_bytes = 0;
  double staged_s = 0;
  double fused_s = 0;
};

Stats measureSchedule(const graph::Graph& g, bool fused, KernelPath p,
                      Size size, const Protocol& proto) {
  const auto images = makeImageSet(size, Depth::U8);
  std::vector<Mat> dsts(images.size());
  auto fn = [&, p, fused](int i) {
    const auto idx = static_cast<std::size_t>(i);
    if (fused)
      g.runFused(images[idx], dsts[idx], p);
    else
      g.runStaged(images[idx], dsts[idx], p);
  };
  runtime::warmupPool();
  for (std::size_t i = 0; i < images.size(); ++i) fn(static_cast<int>(i));
  return summarize(runProtocol(proto, fn));
}

}  // namespace

int main(int argc, char** argv) {
  printHostBanner("Ablation: graph fused vs staged schedules");
  const auto proto = Protocol::fromArgs(argc, argv);
  const auto host = platform::queryHost();
  auto cs = chains();

  std::vector<Row> rows;
  Table t({"chain", "size", "path", "staged", "fused", "fused speedup"});
  for (const auto& c : cs) {
    for (const auto& r : paperResolutions()) {
      for (KernelPath p : benchPaths()) {
        if (!pathAvailable(p)) continue;
        Row row;
        row.chain = c.name;
        row.resolution = r.label;
        row.path = pathLabel(p);
        row.staged_bytes = c.g.stagedBytes(r.size.width, r.size.height);
        row.staged_s = measureSchedule(c.g, false, p, r.size, proto).mean;
        row.fused_s = measureSchedule(c.g, true, p, r.size, proto).mean;
        rows.push_back(row);
        t.addRow({row.chain, r.label, row.path, fmtSeconds(row.staged_s),
                  fmtSeconds(row.fused_s),
                  fmtSpeedup(row.staged_s / row.fused_s)});
      }
    }
  }
  t.print();
  std::printf(
      "\n(Both schedules are bit-identical on every path; the speedup is\n"
      "pure cache blocking of the declared chain. The photo chain carries\n"
      "f32 intermediates — the largest staged footprint, so the largest\n"
      "expected gap once images outgrow the last-level cache.)\n");

  std::FILE* f = std::fopen("BENCH_graph.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_graph.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_graph\",\n");
  std::fprintf(f, "  \"host\": {\"brand\": \"%s\", \"logical_cpus\": %d, "
                  "\"l1d_kb\": %d, \"l2_kb\": %d, \"l3_kb\": %d},\n",
               host.brand.c_str(), host.logical_cpus, host.l1d_kb, host.l2_kb,
               host.l3_kb);
  std::fprintf(f, "  \"protocol\": {\"images\": %d, \"cycles\": %d},\n",
               proto.images, proto.cycles);
  std::fprintf(f, "  \"chains\": {");
  for (std::size_t i = 0; i < cs.size(); ++i)
    std::fprintf(f, "\"%s\": \"%s\"%s", cs[i].name,
                 cs[i].g.signature().c_str(), i + 1 < cs.size() ? ", " : "");
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        f,
        "    {\"chain\": \"%s\", \"resolution\": \"%s\", \"path\": \"%s\", "
        "\"staged_bytes\": %zu, \"staged_s\": %.6e, \"fused_s\": %.6e, "
        "\"speedup\": %.3f}%s\n",
        row.chain.c_str(), row.resolution.c_str(), row.path.c_str(),
        row.staged_bytes, row.staged_s, row.fused_s,
        row.staged_s / row.fused_s, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_graph.json\n");
  return 0;
}
