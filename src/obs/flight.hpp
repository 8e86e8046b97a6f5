// Always-on flight recorder: the last N bytes of span history, snapshotted
// on anomaly.
//
// The global TraceRecorder is an opt-in debugging buffer — large, cleared
// between runs, and often disabled. The flight ring is the opposite: a
// second TraceRecorder (TraceRecorder::flight()), always enabled, with no
// count cap and a byte budget, fed every span the debugging buffer records
// and cheap enough to leave running for a whole bench or load run. When
// something goes wrong — an SLO breach detected by SloRegistry::evaluate,
// or a latency-threshold anomaly caught by the LatencyWatchdog — the
// FlightRecorder freezes the ring into a named Snapshot. Snapshots are
// retained (last kMaxSnapshots) and can be written out as a
// self-contained, Perfetto-loadable Chrome trace JSON (`dump`), which is
// what `psctl flight dump` and the bench harness's breach auto-dump emit:
// CI failures ship the exact offending traces, not just a red verdict.
//
// Budget math: a SpanRecord costs sizeof(SpanRecord) plus its heap strings
// (approx_span_bytes). At the default 8 MiB budget and typical span sizes
// (~250 B with short names/subjects) the ring holds on the order of 30k
// spans — several times a full load_mixed run — so the trace behind a
// p999 exemplar is still in the ring when the breach is detected at
// collection time. Override with PROXYSTORE_FLIGHT_BUDGET (bytes).
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace ps::obs {

class MetricsRegistry;

class FlightRecorder {
 public:
  static constexpr std::size_t kMaxSnapshots = 4;

  /// One frozen copy of the ring, stamped with why and when it was taken.
  struct Snapshot {
    std::string reason;
    double wall_s = 0.0;   // TraceRecorder::global().wall_now() at capture
    double vtime_s = 0.0;  // capturing thread's sim::vnow()
    std::vector<SpanRecord> spans;
  };

  /// Snapshots `ring`, which must outlive the recorder.
  explicit FlightRecorder(TraceRecorder& ring) : ring_(ring) {}

  /// Snapshots TraceRecorder::flight().
  static FlightRecorder& global();

  /// Freezes the current ring as a named snapshot (retaining the newest
  /// kMaxSnapshots) and returns a copy of it.
  Snapshot snapshot(std::string reason);

  std::vector<Snapshot> snapshots() const;
  bool has_snapshot() const;

  /// The latest retained snapshot, or a live "live" capture of the ring
  /// when none has been taken yet.
  Snapshot latest_or_live() const;

  /// `snap` as a self-contained Chrome trace JSON: the usual
  /// {"traceEvents": [...]} document (loadable by Perfetto / the existing
  /// re-parse test) with one extra top-level "flight" object carrying
  /// reason/wall_s/vtime_s/span_count.
  static std::string dump_json(const Snapshot& snap);

  /// Writes dump_json(snap) to `path`; false when unwritable.
  static bool dump(const std::string& path, const Snapshot& snap);

  /// Empties the ring and drops retained snapshots (tests, multi-run
  /// tools). The ring's drop counter stays monotonic.
  void clear();

 private:
  /// The ring as it stands, stamped now.
  Snapshot capture(std::string reason) const;

  TraceRecorder& ring_;
  mutable std::mutex mu_;
  std::vector<Snapshot> snapshots_;
};

/// Latency-threshold anomaly detector over registry histograms.
///
/// watch() registers "metric's max must stay under threshold_s"; check()
/// re-reads every watched histogram and, on the first crossing of each
/// threshold (latched, so a slow metric triggers one snapshot rather than
/// one per check), freezes the flight recorder with an
/// "anomaly: <metric> max <observed> > <threshold>" reason. The load
/// harness arms it per phase and checks after each phase completes.
class LatencyWatchdog {
 public:
  static LatencyWatchdog& global();

  void watch(std::string metric, double threshold_s);
  void clear();
  std::size_t size() const;

  /// Returns the number of snapshots taken by this call.
  std::size_t check(const MetricsRegistry& registry);
  std::size_t check();

 private:
  struct Watch {
    std::string metric;
    double threshold_s = 0.0;
    bool triggered = false;
  };

  mutable std::mutex mu_;
  std::vector<Watch> watches_;
};

}  // namespace ps::obs
