// Shared driver for the Figure 2-6 reproductions: HAND/AUTO speedup series
// across all four image sizes — host-measured plus the simulated series for
// the paper's ten platforms — printed as aligned series and written to CSV.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

namespace simdcv::bench {

/// One host-measured speedup series: label plus one ratio per resolution.
/// Kept numeric so the driver can both format the table row and emit the
/// machine-readable BENCH_<slug>.json consumed by scripts/bench_gate.sh.
struct SpeedupSeries {
  std::string label;
  std::vector<double> speedups;
};

inline int runSpeedupFigure(const char* figureName, const char* csvSlug,
                            platform::BenchKernel kernel, int argc,
                            char** argv) {
  printHostBanner(figureName);
  const auto proto = Protocol::fromArgs(argc, argv);
  const auto& resolutions = paperResolutions();

  // Host-measured speedup series, kept numeric for the JSON gate artifact.
  std::printf("-- host-measured HAND/AUTO speedups --\n");
  std::vector<std::string> header{"series"};
  for (const auto& r : resolutions) header.push_back(r.label);
  std::vector<SpeedupSeries> host;
  for (KernelPath hand : {KernelPath::Sse2, KernelPath::Neon}) {
    if (!pathAvailable(hand)) continue;
    SpeedupSeries series{std::string("host ") + pathLabel(hand), {}};
    for (const auto& r : resolutions) {
      const auto a = measureKernel(kernel, KernelPath::Auto, r.size, proto);
      const auto h = measureKernel(kernel, hand, r.size, proto);
      series.speedups.push_back(speedupOf(a, h));
    }
    host.push_back(std::move(series));
  }
  // The 2012-style baseline: what the speedup looks like against a compiler
  // that vectorizes nothing (paper-era gcc on these loops).
  {
    SpeedupSeries series{"host HAND vs scalar-novec", {}};
    const KernelPath hand =
        pathAvailable(KernelPath::Sse2) ? KernelPath::Sse2 : KernelPath::Neon;
    for (const auto& r : resolutions) {
      const auto a = measureKernel(kernel, KernelPath::ScalarNoVec, r.size, proto);
      const auto h = measureKernel(kernel, hand, r.size, proto);
      series.speedups.push_back(speedupOf(a, h));
    }
    host.push_back(std::move(series));
  }

  Table t(header);
  std::vector<std::vector<std::string>> csv;
  for (const auto& series : host) {
    std::vector<std::string> row{series.label};
    for (double s : series.speedups) row.push_back(fmtSpeedup(s));
    csv.push_back(row);
    t.addRow(std::move(row));
  }
  t.print();

  // Machine-readable speedup artifact for the perf-regression gate
  // (scripts/bench_gate.sh): one row per (series, resolution). Speedups are
  // within-process ratios, so clock drift mostly cancels, which is what
  // makes them gateable.
  {
    const auto hostInfo = platform::queryHost();
    const std::string jsonPath = std::string("BENCH_") + csvSlug + ".json";
    std::FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\n  \"bench\": \"%s\",\n", csvSlug);
      std::fprintf(f,
                   "  \"host\": {\"brand\": \"%s\", \"logical_cpus\": %d, "
                   "\"l1d_kb\": %d, \"l2_kb\": %d, \"l3_kb\": %d},\n",
                   hostInfo.brand.c_str(), hostInfo.logical_cpus,
                   hostInfo.l1d_kb, hostInfo.l2_kb, hostInfo.l3_kb);
      std::fprintf(f, "  \"protocol\": {\"images\": %d, \"cycles\": %d},\n",
                   proto.images, proto.cycles);
      std::fprintf(f, "  \"results\": [\n");
      bool first = true;
      for (const auto& series : host) {
        for (std::size_t i = 0; i < series.speedups.size(); ++i) {
          std::fprintf(f,
                       "%s    {\"series\": \"%s\", \"resolution\": \"%s\", "
                       "\"speedup\": %.3f}",
                       first ? "" : ",\n", series.label.c_str(),
                       resolutions[i].label, series.speedups[i]);
          first = false;
        }
      }
      std::fprintf(f, "\n  ]\n}\n");
      std::fclose(f);
      std::printf("wrote %s\n", jsonPath.c_str());
    }
  }

  // Simulated per-platform series (the figure's ten curves).
  std::printf("\n-- model-simulated speedups (paper platforms) --\n");
  Table s(header);
  std::vector<std::vector<std::string>> scsv;
  for (const auto& p : platform::platformCatalog()) {
    std::vector<std::string> row{p.name};
    for (const auto& r : resolutions)
      row.push_back(fmtSpeedup(platform::simulate(p, kernel, r.size).speedup()));
    scsv.push_back(row);
    s.addRow(std::move(row));
  }
  s.print();
  printAnchorComparison(kernel);

  std::vector<std::vector<std::string>> all = csv;
  all.insert(all.end(), scsv.begin(), scsv.end());
  writeCsv(std::string(csvSlug) + ".csv", header, all);

  // SIMDCV_TRACE=1 (or setEnabled): dump the whole run's span aggregate —
  // including the graph executor's per-stage rows for fig6 — and the raw
  // events as a chrome://tracing file next to the CSV.
  if (prof::enabled()) {
    std::printf("\n-- prof span summary (SIMDCV_TRACE=1) --\n");
    prof::writeSummary(std::cout, prof::snapshot());
    std::cout.flush();
    const std::string tracePath = std::string(csvSlug) + "_trace.json";
    if (prof::writeChromeTrace(tracePath))
      std::printf("chrome trace written to %s (load in chrome://tracing)\n",
                  tracePath.c_str());
    else
      std::printf("chrome trace: failed to write %s\n", tracePath.c_str());
  }
  std::printf(
      "\n(The simulated series are flat across image size, matching the\n"
      "paper's observation that within a platform speedups are 'remarkably\n"
      "similar for all image sizes'.)\n");
  return 0;
}

}  // namespace simdcv::bench
