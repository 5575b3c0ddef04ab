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

inline int runSpeedupFigure(const char* figureName, const char* csvSlug,
                            platform::BenchKernel kernel, int argc,
                            char** argv) {
  printHostBanner(figureName);
  const auto proto = Protocol::fromArgs(argc, argv);
  const auto& resolutions = paperResolutions();

  // Host-measured speedup series: each hand path against AUTO, then the
  // 2012-style baseline: the speedup against a compiler that vectorizes
  // nothing (paper-era gcc on these loops).
  std::printf("-- host-measured HAND/AUTO speedups --\n");
  std::vector<std::string> header{"series"};
  for (const auto& r : resolutions) header.push_back(r.label);
  std::vector<std::vector<std::string>> csv;
  auto addSeries = [&](std::string label, KernelPath base, KernelPath hand) {
    std::vector<std::string> row{std::move(label)};
    for (const auto& r : resolutions) {
      const auto a = measureKernel(kernel, base, r.size, proto);
      const auto h = measureKernel(kernel, hand, r.size, proto);
      row.push_back(fmtSpeedup(speedupOf(a, h)));
    }
    csv.push_back(std::move(row));
  };
  for (KernelPath hand : {KernelPath::Sse2, KernelPath::Neon})
    if (pathAvailable(hand))
      addSeries(std::string("host ") + pathLabel(hand), KernelPath::Auto, hand);
  addSeries("host HAND vs scalar-novec", KernelPath::ScalarNoVec,
            pathAvailable(KernelPath::Sse2) ? KernelPath::Sse2
                                            : KernelPath::Neon);

  Table t(header);
  for (const auto& row : csv) t.addRow(row);
  t.print();

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
