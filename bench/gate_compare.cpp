// gate_compare — CLI front end of the perf-regression gate.
//
//   gate_compare --baseline BENCH_fig6_edge_speedup.json
//                --candidate build/BENCH_fig6_edge_speedup.json
//                [--metrics speedup,images_per_sec] [--tolerance 0.15]
//
// Exit code is the Outcome enum: 0 ok, 1 regression (every offending metric
// named on stderr), 2 missing baseline, 3 parse error, 4 no row overlap,
// 5 host mismatch (baseline recorded on another machine; --ignore-host to
// compare anyway), 64 usage error. scripts/bench_gate.sh drives this against
// the committed smoke baselines after a smoke bench run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/gate.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline FILE --candidate FILE"
               " [--metrics a,b,c] [--tolerance FRAC] [--ignore-host]\n",
               argv0);
}

std::vector<std::string> splitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace simdcv::bench;

  std::string baseline, candidate;
  gate::CompareOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) { usage(argv[0]); return 64; }
      baseline = v;
    } else if (arg == "--candidate") {
      const char* v = next();
      if (v == nullptr) { usage(argv[0]); return 64; }
      candidate = v;
    } else if (arg == "--metrics") {
      const char* v = next();
      if (v == nullptr) { usage(argv[0]); return 64; }
      opts.metrics = splitCsv(v);
    } else if (arg == "--tolerance") {
      const char* v = next();
      char* end = nullptr;
      const double t = v != nullptr ? std::strtod(v, &end) : -1.0;
      if (v == nullptr || end == v || *end != '\0' || t < 0.0 || t > 10.0) {
        std::fprintf(stderr, "gate_compare: bad --tolerance value\n");
        return 64;
      }
      opts.tolerance = t;
    } else if (arg == "--ignore-host") {
      opts.ignore_host_mismatch = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "gate_compare: unknown argument %s\n", arg.c_str());
      usage(argv[0]);
      return 64;
    }
  }
  if (baseline.empty() || candidate.empty()) {
    usage(argv[0]);
    return 64;
  }

  const gate::CompareReport rep = gate::compareFiles(baseline, candidate, opts);
  for (const std::string& m : rep.messages)
    std::fprintf(stderr, "gate_compare: %s\n", m.c_str());
  std::fprintf(stderr,
               "gate_compare: %s — %d row(s) matched (%d unmatched), "
               "%d metric value(s) compared, tolerance %.0f%%\n",
               gate::toString(rep.outcome), rep.rows_matched,
               rep.rows_unmatched, rep.metrics_compared,
               opts.tolerance * 100.0);
  return static_cast<int>(rep.outcome);
}
