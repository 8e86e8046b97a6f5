// Process-wide metrics registry.
//
// Named counters, gauges, and fixed-bucket latency histograms with lock-free
// hot-path updates. Registration (name -> metric) takes a mutex once; callers
// cache the returned reference, after which every increment/observe is a
// handful of relaxed atomic operations. Histograms keep a bounded reservoir of
// raw samples so percentiles are exact for small series (benches) and
// bucket-interpolated beyond that. Exported as a human-readable table or JSON
// (`dump_table()` / `dump_json()`, surfaced by `psctl metrics`).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/context.hpp"

namespace ps::obs {

struct RegistrySnapshot;  // obs/telemetry.hpp

/// Global instrumentation switch. Hot-path helpers (InstrumentedConnector,
/// Timer) check this once per operation; disabling reduces instrumentation to
/// a single relaxed load.
bool enabled();
void set_enabled(bool on);

/// Monotonic event count. Lock-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// How a point-in-time gauge combines across processes/sites when the
/// telemetry plane federates registries (obs/telemetry.hpp). Counters always
/// sum and histograms always merge, but a queue depth summed across windows
/// or a utilization summed across sites is a lie — so every gauge carries an
/// aggregation hint that the merger and the Prometheus export honor.
enum class GaugeAgg : std::uint8_t {
  kLast = 0,  ///< most recent writer wins (default; e.g. phase markers)
  kSum = 1,   ///< additive across processes (e.g. queued work per executor)
  kMax = 2,   ///< worst-case wins (e.g. peak backlog, high-water marks)
};

/// "last" | "sum" | "max".
std::string to_string(GaugeAgg agg);

/// Last-writer-wins instantaneous value (queue depths, bytes held).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

  GaugeAgg agg() const {
    return static_cast<GaugeAgg>(agg_.load(std::memory_order_relaxed));
  }
  void set_agg(GaugeAgg agg) {
    agg_.store(static_cast<std::uint8_t>(agg), std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<std::uint8_t> agg_{0};
};

/// One tail witness: the largest value observed in a bucket, linked to the
/// trace it came from. Valid only when observed under an active trace
/// context (exemplar-free histograms export exactly as before).
struct Exemplar {
  double value_s = 0.0;
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  double vtime_s = 0.0;  // observer's sim::vnow() at observe time

  bool valid() const { return (trace_hi | trace_lo) != 0; }
  std::string trace_id_hex() const {
    return TraceContext{trace_hi, trace_lo, span_id, 0}.trace_id_hex();
  }
};

/// One bucket's trace-linked tail witness in wire form (bucket is the raw
/// index into Histogram::bounds()). Cumulative, like the exemplar it copies:
/// window deltas carry the best witness so far, and merges keep the
/// max-value witness per bucket.
struct ExemplarSnapshot {
  std::uint32_t bucket = 0;
  double value_s = 0.0;
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  double vtime_s = 0.0;

  std::string trace_id_hex() const {
    return TraceContext{trace_hi, trace_lo, span_id, 0}.trace_id_hex();
  }
  auto serde_members() {
    return std::tie(bucket, value_s, trace_hi, trace_lo, span_id, vtime_s);
  }
  auto serde_members() const {
    return std::tie(bucket, value_s, trace_hi, trace_lo, span_id, vtime_s);
  }
};

/// Value copy of one Histogram: the full bucket array (index-aligned with
/// Histogram::bounds()), the raw-sample reservoir prefix, and the integer
/// sum/min/max the atomics maintain. The one home of the histogram read
/// math: Histogram's accessors, every exporter and the telemetry plane all
/// compute mean/min/max/percentiles here.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = UINT64_MAX;
  std::uint64_t max_ns = 0;
  std::vector<std::uint64_t> buckets;  // Histogram::kBuckets entries
  std::vector<double> reservoir;       // first min(count, kReservoir) samples
  std::vector<ExemplarSnapshot> exemplars;

  auto serde_members() {
    return std::tie(count, sum_ns, min_ns, max_ns, buckets, reservoir,
                    exemplars);
  }
  auto serde_members() const {
    return std::tie(count, sum_ns, min_ns, max_ns, buckets, reservoir,
                    exemplars);
  }

  double sum_s() const { return static_cast<double>(sum_ns) * 1e-9; }
  double mean_s() const {
    return count == 0 ? 0.0 : sum_s() / static_cast<double>(count);
  }
  double min_s() const {
    return min_ns == UINT64_MAX ? 0.0 : static_cast<double>(min_ns) * 1e-9;
  }
  double max_s() const { return static_cast<double>(max_ns) * 1e-9; }

  /// p in [0, 100]. Exact (through ps::Stats) while the reservoir holds the
  /// whole series, else linearly interpolated within the bucket the rank
  /// falls in.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }

  /// Accumulates `other` into this snapshot: counts/sums/buckets add,
  /// min/max widen, reservoirs concatenate (capped at Histogram::kReservoir
  /// — append windows in chronological order and the result is exactly the
  /// whole-run sample prefix), exemplars keep the max witness per bucket.
  void merge(const HistogramSnapshot& other);
};

/// Fixed-bucket latency histogram over seconds.
///
/// Buckets are log-spaced upper bounds from 100 ns to 1000 s (four per
/// decade); values past the last bound land in the final bucket. All updates
/// are relaxed atomics. The first kReservoir raw samples are additionally
/// retained so percentiles over short series are exact; longer series fall
/// back to within-bucket linear interpolation (see HistogramSnapshot, which
/// every read accessor goes through).
///
/// Each bucket also keeps one Exemplar — the max value observed in that
/// bucket under an active trace context (max-value-wins replacement). The
/// hot path stays lock-free: a relaxed load of the bucket's current best
/// rejects non-improving samples before the slow (mutex) replacement path.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;
  static constexpr std::size_t kReservoir = 1024;

  Histogram() {
    for (auto& best : exemplar_best_) {
      best.store(-1.0, std::memory_order_relaxed);
    }
  }

  /// Upper bounds (seconds) of each bucket, strictly increasing.
  static const std::array<double, kBuckets>& bounds();

  /// Index of the bucket `seconds` falls into.
  static std::size_t bucket_index(double seconds);

  void observe(double seconds);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of observed values in seconds (nanosecond resolution).
  double sum() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

  /// Value copy of the whole state. Exact when the histogram is quiescent
  /// (the deterministic benches); a snapshot racing a writer may see a
  /// claimed-but-unwritten reservoir slot as 0.0 — never a torn value.
  HistogramSnapshot snapshot() const;

  double mean() const { return snapshot().mean_s(); }
  double min() const { return snapshot().min_s(); }
  double max() const { return snapshot().max_s(); }
  /// p in [0, 100]. Exact while count() <= kReservoir, else interpolated
  /// from bucket boundaries.
  double percentile(double p) const { return snapshot().percentile(p); }
  /// quantile(q) == percentile(100 q); q in [0, 1]. The form SLO
  /// objectives and the Prometheus summary exposition speak.
  double quantile(double q) const { return percentile(q * 100.0); }
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }

  /// (upper_bound, count) for buckets with at least one sample.
  std::vector<std::pair<double, std::uint64_t>> nonzero_buckets() const;

  /// (bucket upper bound, exemplar) for buckets holding a valid exemplar.
  std::vector<std::pair<double, Exemplar>> exemplars() const;
  /// The largest-valued exemplar across all buckets (invalid when none —
  /// i.e. the histogram was never observed under a trace context).
  Exemplar max_exemplar() const;

  void reset();

 private:
  void maybe_exemplar(std::size_t bucket, double seconds);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_ns_{UINT64_MAX};
  std::atomic<std::uint64_t> max_ns_{0};
  std::array<std::atomic<double>, kReservoir> reservoir_{};
  /// Best value per bucket (-1 = empty): the lock-free rejection gate.
  std::array<std::atomic<double>, kBuckets> exemplar_best_{};
  mutable std::mutex exemplar_mu_;
  std::array<Exemplar, kBuckets> exemplar_slots_{};
};

/// Process-wide named-metric registry.
///
/// Lookup registers on first use and returns a reference that stays valid for
/// the life of the process (reset() zeroes values, never destroys metrics).
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// The registry the calling thread should record into. Defaults to
  /// global(); proc::ProcessScope installs a process-owned registry here
  /// when its world has per-process metrics scoping enabled, so substrate
  /// instrumentation (connectors, stores, stream, faas) lands in the
  /// simulated site doing the work instead of one process-wide blob.
  static MetricsRegistry& ambient();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Registers (or looks up) a gauge and pins its aggregation hint — how
  /// the telemetry merger combines it across processes/sites.
  Gauge& gauge(const std::string& name, GaugeAgg agg);
  Histogram& histogram(const std::string& name);

  /// Counter values for export and tests (take_snapshot() copies
  /// everything).
  std::map<std::string, std::uint64_t> counters() const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Machine-readable export: {"schema_version": 3,
  /// "bucket_bounds_s": [...], "counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum_s, mean_s, min_s, max_s, p50_s,
  /// p95_s, p99_s, p999_s, buckets: [[le, n], ...], exemplars: [{le,
  /// value_s, trace_id, span_id, vtime_s}, ...]}}}. v3 adds the (possibly
  /// empty) per-histogram exemplars array.
  std::string dump_json() const;

  /// Columnar export: counters, then per-histogram count/mean/p50/p95/p99/max.
  std::string dump_table() const;

  /// Zeroes every registered metric (names and references survive).
  void reset();

  /// Deep value copy of every metric at one instant, stamped with the
  /// scraper's virtual time (the RegistrySnapshot model lives in
  /// obs/telemetry.hpp).
  RegistrySnapshot take_snapshot(double vtime_s) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Installs `registry` as the calling thread's ambient registry (nullptr
/// restores the global default) and returns the previous override — the
/// save/restore pair proc::ProcessScope uses. Plain thread_local swap;
/// callers own the registry's lifetime.
MetricsRegistry* set_ambient_registry(MetricsRegistry* registry);

}  // namespace ps::obs
