// Shared plumbing for the benchmark's workloads: clocks, deterministic
// payloads, and the per-repetition result every workload returns.
//
// A repetition ("rep") builds a fresh simulated testbed, runs a fixed,
// seed-determined op sequence and tears everything down. Because the op
// sequence is fixed, every rep of one seed charges exactly the same virtual
// time; wall time, CPU time and memory are what vary.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace perfbench {

/// Seconds on the monotonic wall clock.
double wall_now_s();
/// CPU seconds consumed by the calling thread.
double thread_cpu_s();
/// CPU seconds (user + system) consumed by the whole process.
double process_cpu_s();
/// Peak resident set size of this process (getrusage ru_maxrss), in MB.
double peak_rss_mb();
/// Returns freed heap pages to the OS so one rep's garbage does not inflate
/// the next rep's resident set.
void release_free_memory();

/// splitmix64-style combination of two words.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);
/// Folds the bit pattern of a double into a running digest.
std::uint64_t mix_double(std::uint64_t digest, double value);

/// Fills `n` bytes at `dst` with the pattern identified by `seed`.
void fill_pattern(char* dst, std::size_t n, std::uint64_t seed);
/// A fresh payload of `n` bytes carrying the pattern `seed`.
ps::Bytes make_pattern(std::size_t n, std::uint64_t seed);
/// True when `data` is exactly the pattern `seed` at its length.
bool matches_pattern(ps::BytesView data, std::uint64_t seed);
/// 64-bit fingerprint of a payload (task code hashes its whole input).
std::uint64_t fingerprint(ps::BytesView data);

/// `n` sizes log-uniform over [lo, hi], one from each of `n` equal strata
/// of the log range, in shuffled order. Every seed yields nearly the same
/// size distribution (so per-run figures vary little with the seed) while
/// the seed still sets the order and the exact sizes.
std::vector<std::size_t> stratified_log_uniform(ps::Rng& rng, std::size_t n,
                                                double lo, double hi);

/// Nearest-rank quantile of `values` (copied and sorted), q in (0, 1].
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

struct RepOptions {
  std::uint64_t seed = 1;
  /// Wrap connectors in TimedConnector and record spans.
  bool traced = false;
  /// Build and tear down the testbed without running the measured phase
  /// (extra samples for the set-up time median).
  bool setup_only = false;
};

/// Wall and CPU time of the measured phase, minus the benchmark's own work
/// inside it (payload generation and verification), which runs under
/// BenchSide scopes on the main thread.
class PhaseClock {
 public:
  void begin();
  void end();
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }

  class BenchSide {
   public:
    explicit BenchSide(PhaseClock& clock);
    ~BenchSide();
    BenchSide(const BenchSide&) = delete;
    BenchSide& operator=(const BenchSide&) = delete;

   private:
    PhaseClock& clock_;
    double wall0_;
    double cpu0_;
  };

 private:
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
  double excluded_wall_s_ = 0.0;
  double excluded_cpu_s_ = 0.0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
};

struct RepResult {
  /// Wall seconds from the start of the rep to its first measured op
  /// (testbed, kv server, stores, preload, worker, warm-up).
  double setup_s = 0.0;
  /// Per measured op, in op order.
  std::vector<double> op_wall_us;
  std::vector<double> op_vtime_s;
  double phase_wall_s = 0.0;
  double phase_cpu_s = 0.0;
  /// Virtual time from the first measured op's start to the last one's end.
  double vtime_makespan_s = 0.0;
  /// Measured ops per virtual second: ops over the makespan for one stream;
  /// the sum of per-client rates for a closed-loop fleet, whose makespan is
  /// set by its single slowest client.
  double vtime_ops_per_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of the generated op sequence (kinds, keys, sizes).
  std::uint64_t op_digest = 0;
  /// Digest of every per-op vtime and the kv server's end counters.
  std::uint64_t vtime_digest = 0;
  /// Failed end-state checks; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Per-layer metrics (traced reps only).
  std::map<std::string, double> layers;
};

/// Workload parameters echoed into every result so runs made with different
/// configurations never compare as drift.
using Params = std::map<std::string, std::string>;

struct Workload {
  const char* name;
  Params (*params)();
  RepResult (*run)(const RepOptions&);
};

Params hot_small_params();
RepResult run_hot_small(const RepOptions& options);
Params bulk_handoff_params();
RepResult run_bulk_handoff(const RepOptions& options);
Params steer_tasks_params();
RepResult run_steer_tasks(const RepOptions& options);

}  // namespace perfbench
