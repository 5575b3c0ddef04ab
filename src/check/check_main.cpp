// check_all — differential kernel-path checker CLI.
//
// Runs every registered kernel family on seeded adversarial inputs across
// all available KernelPaths x {1, N} threads and demands agreement with the
// scalar-novec single-thread reference. Exit status 0 iff every comparison
// agreed. See DESIGN.md ("simdcv::check") for the tolerance policy.
//
//   check_all [--seed=HEX] [--iters=N] [--threads=N] [--only=SUBSTR]
//             [--no-shrink] [--verbose] [--list]
//
// Environment overrides (flags win): SIMDCV_CHECK_SEED, SIMDCV_CHECK_ITERS.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/check.hpp"
#include "simd/features.hpp"

namespace {

bool parseFlag(const char* arg, const char* name, const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--seed=HEX] [--iters=N] [--threads=N]\n"
               "          [--only=SUBSTR] [--no-shrink] [--verbose] [--list]\n"
               "env: SIMDCV_CHECK_SEED, SIMDCV_CHECK_ITERS (flags win)\n",
               prog);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace simdcv;
  check::Options opts;
  if (const char* env = std::getenv("SIMDCV_CHECK_SEED")) {
    opts.seed = std::strtoull(env, nullptr, 0);
  }
  if (const char* env = std::getenv("SIMDCV_CHECK_ITERS")) {
    opts.iters = static_cast<int>(std::strtol(env, nullptr, 10));
  }
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (parseFlag(argv[i], "--seed", &v) && v) {
      opts.seed = std::strtoull(v, nullptr, 0);
    } else if (parseFlag(argv[i], "--iters", &v) && v) {
      opts.iters = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (parseFlag(argv[i], "--threads", &v) && v) {
      opts.threads_high = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (parseFlag(argv[i], "--only", &v) && v) {
      opts.only = v;
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      opts.shrink = false;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      opts.verbose = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }

  if (list) {
    for (const auto& k : check::kernelRegistry()) {
      std::printf("%s\n", k.name.c_str());
    }
    return 0;
  }

  std::fprintf(stderr, "check_all: seed=0x%llx iters=%d paths:",
               static_cast<unsigned long long>(opts.seed), opts.iters);
  for (KernelPath p : check::availablePaths()) {
    std::fprintf(stderr, " %s", toString(p));
  }
  std::fprintf(stderr, "\ncheck_all: default: %s\n",
               toString(resolvePath(KernelPath::Default)));

  const check::Report report = check::runAll(opts);
  std::fprintf(stderr,
               "check_all: %llu kernels, %llu cases, %llu comparisons, "
               "%zu failures\n",
               static_cast<unsigned long long>(report.kernels_checked),
               static_cast<unsigned long long>(report.cases_run),
               static_cast<unsigned long long>(report.comparisons),
               report.failures.size());
  return report.ok() ? 0 : 1;
}
