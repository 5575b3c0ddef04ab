// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Workloads: serve-edge-vga, serve-mixed-scan, batch-8mpx (README.md).
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
// writes perfbench-trace-<workload>.json (chrome trace) to the working
// directory. The last stdout line is one JSON object: correct, attempted,
// failed and metrics. Any error exits non-zero without that line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void printHost() {
  const platform::HostInfo h = platform::queryHost();
  std::string caps;
  for (const caps::BackendInfo& b : caps::backends())
    caps += std::string(" ") + b.name + (b.selectable() ? "" : "(off: " + b.reason + ")");
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host: %s | L1d %d KB, L2 %d KB, L3 %d KB | %d logical CPUs | "
                "Default path %s | caps:%s",
                h.brand.c_str(), h.l1d_kb, h.l2_kb, h.l3_kb, hostCpus(),
                toString(resolvePath(KernelPath::Default)), caps.c_str());
  Report::note(buf);
}

void emitLayers(const WindowLayers& w, const ProbeResult& probe,
                const Tracer::Rollup& self, Report& report) {
  auto serve = [&](const char* name) {
    const auto it = w.serve.find(name);
    return it == w.serve.end() ? 0.0 : it->second;
  };
  for (const char* name : {"serve.exec_p50_ms", "serve.exec_p99_ms",
                           "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms"})
    report.add(name, serve(name), "ms");
  report.add("serve.overhead_ms",
             w.execSmallP50Ms > 0 ? w.execSmallP50Ms - probe.edgeRunMs : 0.0, "ms");
  report.add("serve.small_p99_ms", serve("serve.small_p99_ms"), "ms");
  report.add("serve.large_p50_ms", serve("serve.large_p50_ms"), "ms");
  for (const char* name : {"serve.rejected_full", "serve.expired", "serve.errors",
                           "serve.queued_max"})
    report.add(name, serve(name), "count");
  report.add("runtime.tasks_per_image",
             static_cast<double>(w.pool.tasks_executed) / w.images, "count");
  report.add("runtime.steals_per_image",
             static_cast<double>(w.pool.steals) / w.images, "count");
  report.add("runtime.parks_per_image",
             static_cast<double>(w.pool.parks) / w.images, "count");
  report.add("core.mat_allocs_per_request", w.matAllocsPerRequest, "count");
  report.add("gen.late_p99_ms", w.genLateP99Ms, "ms");
  report.add("trace.overhead_frac", w.overheadFrac, "ratio");

  std::string line = "self time per request/image (" +
                     std::to_string(self.roots) + " traced):";
  char buf[64];
  for (const char* layer : {"gen", "serve", "graph", "kernel"}) {
    const auto it = self.self_ms.find(layer);
    const double v = it == self.self_ms.end() ? 0.0 : it->second;
    report.add(std::string("trace.self_ms.") + layer, v, "ms");
    std::snprintf(buf, sizeof(buf), " %s %.4f ms,", layer, v);
    line += buf;
  }
  report.add("trace.unattributed_ms", self.unattributed_ms, "ms");
  std::snprintf(buf, sizeof(buf), " unattributed %.4f ms (total %.4f ms)",
                self.unattributed_ms, self.total_ms);
  Report::note(line + buf);
}

namespace {

// The output checker's own test: one flipped byte in one output must count
// as exactly one failed operation and make the result incorrect.
int selfTest() {
  const std::vector<Mat> src = scenes({96, 64}, 3);
  const graph::Graph g = edgeGraph();
  Report report;
  for (const Mat& m : src) {
    Mat ref, out;
    g.runStaged(m, ref);
    g.run(m, out);
    report.count(sameBytes(out, ref));
    if (&m == &src[2]) {
      out.ptr<std::uint8_t>(17)[23] ^= 0x01;
      report.count(sameBytes(out, ref));
    }
  }
  const bool ok = report.attempted() == src.size() + 1 && report.failed() == 1;
  std::printf("self-test: %llu attempted, %llu failed -> %s\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              ok ? "corruption caught" : "CORRUPTION MISSED");
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Options& o) {
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = v;
      haveWorkload = true;
    } else if (key == "--seed") {
      o.seed = static_cast<std::uint32_t>(std::strtoul(v, &end, 10));
    } else if (key == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (!(o.seconds > 0 && o.seconds <= 120)) return false;
    } else if (key == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return haveWorkload && argc % 2 == 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return selfTest();
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <serve-edge-vga|serve-mixed-scan|"
                 "batch-8mpx> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  try {
    printHost();
    std::printf("workload %s, seed %u, %.1f s, trace %d\n", opt.workload.c_str(),
                opt.seed, opt.seconds, opt.trace ? 1 : 0);
    Report report;
    if (opt.workload == "batch-8mpx")
      runBatch(opt, report);
    else
      runServe(opt, report);
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
