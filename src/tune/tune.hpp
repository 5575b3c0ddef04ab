// simdcv::tune — measurement-driven dispatch: close the measure→dispatch loop.
//
// The paper's central finding is that the winning implementation (hand SIMD
// vs autovec vs scalar) flips per kernel, per size, and per ISA; until now
// the library encoded those crossovers as one-off heuristics (e.g. the
// fixed 256 KiB fork threshold in runtime::parallelThreshold). This subsystem replaces "predict" with
// "measure once, remember": the first few calls of a kernel at a given
// decision point run a short calibrated trial — each candidate is timed on
// live traffic via prof::nowNs(), no synthetic inputs — and the winner is
// committed and served to every later call.
//
// Decision points are keyed by
//     kernel × axis × KernelPath × size-class
// where axis is one of
//     "path"  — KernelPath auto-selection for Default requests
//               (candidates: Auto + every available HAND path),
//     "fuse"  — a graph's fused-vs-staged choice, keyed by its signature
//               (Graph::fuseProfitable seeds the trial),
//     "grain" — parallel_for band grain for the big five kernels
//               (candidates: heuristic ×1 / ×2 / ×4 / serial).
// Every candidate on every axis is bit-exact with every other (the
// simdcv::check contract), so tuning is purely a scheduling choice; the
// check registry's *.tuned entries enforce this against the fixed-path
// oracles.
//
// Trials are correctness-neutral but time-variant, so only ONE axis measures
// per call tree (a thread-local guard): a nested kernel never starts its own
// trial inside an outer trial's measurement window.
//
// Persistence: decisions are cached in memory and, when SIMDCV_TUNE_CACHE
// names a file, persisted there under a versioned header keyed by a
// platform::queryHost() fingerprint. A missing, corrupt, or
// wrong-fingerprint file is ignored with a one-line warning (decisions are
// simply re-measured), never an error. Tuned dispatch itself is opt-in:
// SIMDCV_TUNE=1 or tune::setEnabled(true); when off, every call takes the
// pre-existing heuristic path byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simd/features.hpp"

namespace simdcv::tune {

// ---- enable switch ---------------------------------------------------------

/// Is tuned dispatch active? Defaults to the SIMDCV_TUNE env flag (unset = off).
bool enabled() noexcept;
void setEnabled(bool on) noexcept;

/// RAII enable/restore, for tests and the check registry's tuned entries.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) noexcept;
  ~ScopedEnable();
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

// ---- cache identity --------------------------------------------------------

/// Host fingerprint the cache is keyed by: FNV-1a hex over CPU brand,
/// logical CPU count, cache sizes and ISA flags. A cache file recorded on a
/// different host (different fingerprint) is ignored and re-measured.
std::string fingerprint();

/// Log2 size-class bucket of a byte count (0 for 0/1 bytes). One decision is
/// kept per octave, so 640x480 and 641x481 share a class but 640x480 and
/// 2592x1920 do not.
int sizeClass(std::uint64_t bytes) noexcept;

// ---- persistence -----------------------------------------------------------

/// Cache file path ("" = in-memory only). Initialized from SIMDCV_TUNE_CACHE
/// on first use; setCachePath overrides (and arms a fresh lazy load).
void setCachePath(std::string path);
std::string cachePath();

/// Explicit load/save. load() returns false (leaving decisions untouched,
/// warning once on stderr) for a missing, corrupt, or wrong-fingerprint
/// file; malformed individual entries are skipped. save() writes the
/// versioned header + every committed decision atomically (tmp + rename).
bool loadCache(const std::string& path);
bool saveCache(const std::string& path);

// ---- the decision machinery ------------------------------------------------

/// Result of a dispatch query at one decision point.
struct Decision {
  int choice = 0;         ///< candidate index to use for this call
  bool measuring = false; ///< true: this call is a trial sample — report() it
};

/// Query a decision point with `numCandidates` candidates. Committed points
/// return their winner (measuring=false). Uncommitted points cycle the
/// least-sampled candidate with measuring=true — the caller times the call
/// and report()s it — unless another axis is already measuring on this
/// thread, in which case `fallback` is served unmeasured.
Decision decide(const std::string& key, int numCandidates, int fallback);

/// Record one trial sample. After every candidate has kTrialSamples samples
/// the winner (smallest median) is committed; if a cache path is configured
/// the file is rewritten.
void report(const std::string& key, int candidate, std::uint64_t ns);

/// Samples collected per candidate before a decision commits.
inline constexpr int kTrialSamples = 3;

/// Committed winner for `key`, or -1 while undecided.
int committedChoice(const std::string& key);

/// All committed decisions, sorted by key (test/debug surface).
std::vector<std::pair<std::string, int>> decisions();

struct Stats {
  std::uint64_t decisions_served = 0;   ///< dispatches served from a winner
  std::uint64_t trials_started = 0;     ///< calls that measured a sample
  std::uint64_t samples_recorded = 0;
  std::uint64_t decisions_committed = 0;
  std::uint64_t file_entries_loaded = 0;
  std::uint64_t file_load_failures = 0; ///< missing/corrupt/wrong-host loads
};
Stats stats() noexcept;

/// Drop every decision, in-flight trial and stat (not the cache file).
void reset();

// ---- kernel-facing scopes --------------------------------------------------

/// Key for one decision point; exposed so tests can address the same points
/// the kernels use. Axis and kernel must be literal-like identifiers (no
/// whitespace); path kNoPathAxis marks the path axis itself.
std::string pointKey(const char* kernel, const char* axis, KernelPath path,
                     int size_class);
std::string pointKeyPathAxis(const char* kernel, int size_class);

/// Candidate paths of the "path" axis on this host, in candidate-index
/// order: Auto first, then each available HAND path.
const std::vector<KernelPath>& pathCandidates();

/// KernelPath auto-selection axis. Inert (path = resolvePath(requested))
/// when tuning is off or the request names a concrete path; otherwise the
/// measured winner — or a trial candidate — for this kernel/size-class.
/// Destruction reports the sample when this scope is the measuring axis.
class PathScope {
 public:
  PathScope(const char* kernel, KernelPath requested,
            std::uint64_t bytes) noexcept;
  ~PathScope();
  PathScope(const PathScope&) = delete;
  PathScope& operator=(const PathScope&) = delete;

  KernelPath path() const noexcept { return path_; }
  bool measuring() const noexcept { return measuring_; }

 private:
  KernelPath path_;
  std::string key_;
  int candidate_ = -1;
  std::uint64_t t0_ = 0;
  bool measuring_ = false;
};

/// Generic N-way tuned choice (Graph::run's fuse axis). `fallback` is the
/// heuristic decision served while trials are unavailable.
class ChoiceScope {
 public:
  ChoiceScope(const char* kernel, const char* axis, KernelPath path,
              std::uint64_t bytes, int numCandidates, int fallback) noexcept;
  ~ChoiceScope();
  ChoiceScope(const ChoiceScope&) = delete;
  ChoiceScope& operator=(const ChoiceScope&) = delete;

  int choice() const noexcept { return choice_; }
  bool measuring() const noexcept { return measuring_; }

 private:
  int choice_;
  std::string key_;
  std::uint64_t t0_ = 0;
  bool measuring_ = false;
};

/// Band-grain axis for a parallel_for kernel: candidates are the heuristic
/// grain ×1 / ×2 / ×4 and fully-serial (grain = rows). grain() is clamped to
/// [1, max(rows, 1)] so any choice stays a valid partition (banding cannot
/// change results — the runtime's determinism guarantee).
class GrainScope {
 public:
  GrainScope(const char* kernel, KernelPath path, std::uint64_t bytes,
             int rows, int heuristicGrain) noexcept;
  ~GrainScope();
  GrainScope(const GrainScope&) = delete;
  GrainScope& operator=(const GrainScope&) = delete;

  int grain() const noexcept { return grain_; }
  bool measuring() const noexcept { return measuring_; }

 private:
  int grain_;
  std::string key_;
  int candidate_ = -1;
  std::uint64_t t0_ = 0;
  bool measuring_ = false;
};

/// The grain a candidate index maps to (exposed for tests).
int grainForChoice(int choice, int heuristicGrain, int rows) noexcept;
inline constexpr int kGrainCandidates = 4;

}  // namespace simdcv::tune
