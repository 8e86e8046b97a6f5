// Machine-readable bench artifacts (BENCH_<name>.json) and the perf-
// regression gate behind `psctl bench diff`.
//
// Every bench harness emits, via bench_util's shared reporter, one JSON
// artifact describing the run: schema_version, bench name, RNG seed, git
// revision, per-series statistics (count/mean/p50/p99/p999/min/max/sum
// pulled from the MetricsRegistry histograms the bench observed into), the
// SLO verdicts of every objective declared in the global SloRegistry, and
// the top-N call-tree profile nodes from the span profiler. Blessed
// baselines live under results/baselines/; `psctl bench diff <baseline>
// <candidate>` compares series with a noise-aware threshold — series
// measured in deterministic virtual time must match exactly (count and
// stats), while wall-clock series get a configurable relative tolerance —
// and additionally fails any candidate carrying an SLO breach, reporting
// both with a nonzero exit so CI can gate on them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/critical.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"

namespace ps::obs {

class MetricsRegistry;

/// Current BENCH_*.json schema, the only one the parser accepts. Bump when
/// fields change meaning (and re-bless results/baselines/). History: v2
/// added per-series p999_s and the top-level "slos" verdict array; v3 the
/// optional per-series "attribution" breakdown (critical-path segments
/// explaining the series' worst exemplar). v1/v2 artifacts are rejected.
inline constexpr int kBenchSchemaVersion = 3;

/// Critical-path breakdown of one series' worst trace-linked sample: the
/// exemplar's value and root span, and the segment shares that sum to it
/// (within float noise; `psctl bench check` enforces 5%).
struct SeriesAttribution {
  std::string trace_id;       // 32 hex digits
  std::uint64_t span_id = 0;  // the exemplar's (root) span
  double sample_s = 0.0;      // the exemplar value being explained
  double attributed_s = 0.0;  // sum over segments
  std::vector<SegmentShare> segments;
};

struct SeriesStats {
  std::uint64_t count = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double sum_s = 0.0;
  std::string units = "s";     // "s" for latencies, "ratio" for fractions
  std::string kind = "vtime";  // "vtime" (deterministic) | "wall"
  /// Present when the series held a trace-linked exemplar whose root span
  /// was still in a span buffer at collection time. Never diffed — the
  /// trace ids are run-local.
  std::optional<SeriesAttribution> attribution;
};

/// Metadata a bench registers per series: measurement clock + units.
struct SeriesMeta {
  std::string kind = "vtime";
  std::string units = "s";
};

struct BenchArtifact {
  int schema_version = kBenchSchemaVersion;
  std::string bench;     // harness name, e.g. "fig5_faas_rtt"
  std::uint64_t seed = 0;
  std::string git_rev;   // best-effort HEAD commit, "unknown" otherwise
  std::map<std::string, SeriesStats> series;
  /// Verdicts of every objective declared in the global SloRegistry at
  /// collection time (declaration order).
  std::vector<SloVerdict> slos;
  std::vector<ProfileEntry> profile_top;  // hottest-first, may be empty
};

/// Best-effort current git revision: walks up from `start_dir` (default:
/// the working directory) looking for .git and resolves HEAD without
/// spawning a process. Returns "unknown" when no repository is found.
std::string git_revision(const std::string& start_dir = {});

/// Builds an artifact from the process-wide MetricsRegistry: one SeriesStats
/// per entry of `series_meta` (names not present in the registry are
/// skipped), one SloVerdict per objective in the global SloRegistry, plus
/// the top `profile_top_n` nodes of the span profile aggregated from the
/// global TraceRecorder.
BenchArtifact collect_bench_artifact(
    const std::string& bench_name, std::uint64_t seed,
    const std::map<std::string, SeriesMeta>& series_meta,
    std::size_t profile_top_n = 10);

std::string bench_artifact_json(const BenchArtifact& artifact);

/// Writes bench_artifact_json() to `path`; false when unwritable.
bool write_bench_artifact(const std::string& path,
                          const BenchArtifact& artifact);

/// Parses (and thereby schema-validates) an artifact. On failure returns
/// nullopt and, when `error` is non-null, a one-line reason.
std::optional<BenchArtifact> parse_bench_artifact(const std::string& text,
                                                  std::string* error);

/// parse_bench_artifact over a file's contents.
std::optional<BenchArtifact> read_bench_artifact(const std::string& path,
                                                 std::string* error);

// ------------------------------------------------------------------ diff ----

struct DiffOptions {
  /// Relative tolerance treated as "exact" for vtime series: covers only
  /// the %.9g formatting round trip, not real drift.
  double vtime_rel_tol = 1e-8;
  /// Relative tolerance on the mean of wall-clock series (0.25 = +25%).
  /// Wall regressions beyond it fail; wall improvements always pass.
  double wall_rel_tol = 0.25;
  /// A baseline series missing from the candidate is drift.
  bool fail_on_missing = true;
};

struct SeriesDelta {
  std::string name;
  std::string kind;
  std::uint64_t base_count = 0;
  std::uint64_t cand_count = 0;
  double base_mean_s = 0.0;
  double cand_mean_s = 0.0;
  double rel_delta = 0.0;  // (cand - base) / base mean; 0 when base == 0
  /// "ok", "drift" (vtime mismatch), "regression" (wall beyond tolerance),
  /// "missing" (absent from candidate), "new" (absent from baseline; never
  /// failing).
  std::string verdict;
};

struct DiffResult {
  std::vector<SeriesDelta> deltas;
  /// Candidate SLO verdicts with status "breach"; any entry fails the diff
  /// (the CI SLO gate), independent of series drift.
  std::vector<SloVerdict> slo_breaches;
  bool failed = false;  // any drift/regression/missing/SLO breach
  std::string summary;  // one line, e.g. "2 of 14 series drifted"
};

DiffResult diff_bench_artifacts(const BenchArtifact& baseline,
                                const BenchArtifact& candidate,
                                const DiffOptions& options = {});

}  // namespace ps::obs
