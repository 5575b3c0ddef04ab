// Perf-regression gate: compare a fresh benchmark run against a committed
// baseline JSON (BENCH_fig6_edge_speedup.json / BENCH_serve.json) and fail
// loudly when a metric regressed beyond tolerance.
//
// The bench writers emit {"bench": ..., "results": [ {row}, {row}, ... ]}
// where each row mixes identity fields (resolution, path, pipeline, mode,
// workers, requests) with measured metrics (speedup, images_per_sec, *_s,
// *_ms). The gate matches rows by their identity fields and compares only
// the intersection: a smoke run carries a subset of the full protocol's rows
// (fewer sizes, fewer worker counts) and that must gate against the full
// baseline without special cases. Direction is per metric — speedup and
// *_per_sec regress downward, *_s / *_ms regress upward — and a candidate
// exactly at the tolerance boundary passes (the gate uses strict
// inequality), so "15% tolerance" means "worse than 15%".
//
// Failure taxonomy (one enum, distinct process exit codes in gate_compare):
//   Ok              every intersected metric within tolerance
//   Regression      at least one metric beyond tolerance (named in messages)
//   MissingBaseline baseline file absent/unreadable — the gate cannot vouch
//   ParseError      malformed JSON on either side
//   NoOverlap       zero candidate rows matched a baseline row (identity
//                   drift: renamed fields would otherwise pass vacuously)
//   HostMismatch    the files carry different "host" blocks — a perf
//                   baseline recorded on another machine cannot gate this
//                   one; re-record the baseline to arm the gate
#pragma once

#include <string>
#include <vector>

namespace simdcv::bench::gate {

enum class Outcome : int {
  Ok = 0,
  Regression = 1,
  MissingBaseline = 2,
  ParseError = 3,
  NoOverlap = 4,
  HostMismatch = 5,
};

const char* toString(Outcome o) noexcept;

/// One benchmark result row, flattened: identity fields as strings (numeric
/// identities like workers are canonicalized through their decimal form),
/// metrics as doubles.
struct Row {
  std::vector<std::pair<std::string, std::string>> ids;  // sorted by key
  std::vector<std::pair<std::string, double>> metrics;   // sorted by key
  std::string idKey() const;  // "k=v|k=v|..." — the row-matching key
};

/// Metric direction: +1 higher-is-better (speedup, *_per_sec), -1
/// lower-is-better (*_s, *_ms), 0 unknown/identity (not compared unless
/// explicitly requested, in which case unknown names are an error).
int metricDirection(const std::string& name) noexcept;

/// Parse the "results" array of a bench JSON into rows. Returns false and
/// sets *error on malformed JSON or a missing/ill-typed results array.
bool parseResults(const std::string& json_text, std::vector<Row>* out,
                  std::string* error);

/// Canonical host identity of a bench JSON ("brand|cpus|l1d|l2|l3" from its
/// "host" object); empty when the file carries none or fails to parse.
std::string parseHost(const std::string& json_text);

struct CompareOptions {
  /// Relative tolerance: a metric fails only when worse than base by MORE
  /// than this factor (0.15 = 15%).
  double tolerance = 0.15;
  /// Metrics to compare; empty = every metric with a known direction that
  /// both rows carry.
  std::vector<std::string> metrics;
  /// Compare even when the two files were recorded on different hosts
  /// (timings are not comparable across machines; default is to refuse).
  bool ignore_host_mismatch = false;
};

struct CompareReport {
  Outcome outcome = Outcome::Ok;
  int rows_matched = 0;      ///< candidate rows with a baseline identity match
  int rows_unmatched = 0;    ///< candidate rows with no baseline counterpart
  int metrics_compared = 0;
  /// Human-readable lines: every regression (naming row, metric, values) and
  /// any parse/structure complaint.
  std::vector<std::string> messages;
};

/// Compare parsed candidate rows against baseline rows.
CompareReport compareRows(const std::vector<Row>& baseline,
                          const std::vector<Row>& candidate,
                          const CompareOptions& opts);

/// File-level driver: reads, parses and compares. A missing/unreadable
/// baseline file maps to MissingBaseline, a missing candidate to ParseError
/// (the candidate is the run the caller just made — its absence is a bug).
CompareReport compareFiles(const std::string& baseline_path,
                           const std::string& candidate_path,
                           const CompareOptions& opts);

}  // namespace simdcv::bench::gate
