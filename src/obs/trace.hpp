// Proxy lifecycle tracing and distributed span collection.
//
// A TraceRecorder captures two kinds of records:
//   * instant events — per-subject lifecycle points (a subject is a
//     "<store>/<key>" string minted when a proxy is created), each stamped
//     with wall time (steady-clock seconds since recorder construction) and
//     the recording thread's virtual time, plus the thread's active
//     TraceContext so events attribute to the span they occurred under;
//   * spans — closed [start, end] intervals produced by obs::SpanScope,
//     carrying a full TraceContext (128-bit trace id, span id, parent span
//     id) and the simulated locality (process/host/site) they executed in.
//     Because the context rides on the wire (factory descriptors, FaaS task
//     records, relay messages, endpoint requests), spans recorded in
//     different simulated processes/sites stitch into one causal trace.
//
// Disabled by default: the hot-path cost when off is one relaxed load.
// The Store and descriptor-factory resolve path emit the canonical
// lifecycle — proxy.created -> factory.serialized -> factory.deserialized ->
// resolve.start -> connector.get -> deserialize -> cache.insert ->
// resolve.done — so `timeline()` reconstructs where a resolve spent its
// time across processes, and obs/export.hpp renders spans() as a
// Perfetto-loadable Chrome trace.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "obs/context.hpp"

namespace ps::obs {

struct TraceEvent {
  std::string subject;  // e.g. "store-name/key-canonical"
  std::string name;     // e.g. "resolve.start"
  double wall_s = 0.0;  // steady seconds since the recorder's origin
  double vtime_s = 0.0;  // recording thread's sim::vnow()
  /// The thread's active trace context at record time (invalid when the
  /// event occurred outside any span).
  TraceContext ctx;
};

/// One closed span: a named interval executed in one simulated locality,
/// causally positioned by its TraceContext.
struct SpanRecord {
  TraceContext ctx;
  std::string name;     // e.g. "faas.submit", "proxy.resolve"
  std::string subject;  // optional "<store>/<key>" attribution
  /// Critical-path segment this span's self-time belongs to (e.g.
  /// "wire-transfer", "serde", "executor-queue"); empty means the
  /// CriticalPath analyzer classifies by span name, falling back to
  /// "other". See obs/critical.hpp for the taxonomy.
  std::string kind;
  std::string process;  // simulated process the span ran in
  std::string host;     // fabric host
  std::string site;     // fabric site
  double wall_start = 0.0;
  double wall_end = 0.0;
  double vtime_start = 0.0;
  double vtime_end = 0.0;
};

/// Parentage index over one span set, shared by every span-tree walker
/// (Profile, CriticalPath): (trace id, span id) -> position, and (trace id,
/// parent span id) -> child positions in record order. Span ids are
/// process-wide sequential, but keys carry the trace id so spans never merge
/// across traces; on a duplicate key the first record wins.
struct SpanIndex {
  using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

  SpanIndex() = default;
  explicit SpanIndex(const std::vector<SpanRecord>& spans);

  static Key key(const TraceContext& ctx, std::uint64_t span_id) {
    return {ctx.trace_hi, ctx.trace_lo, span_id};
  }

  std::map<Key, std::size_t> by_id;
  std::map<Key, std::vector<std::size_t>> children;
};

/// Approximate resident cost of one record: struct plus heap strings.
std::size_t approx_span_bytes(const SpanRecord& span);

class TraceRecorder {
 public:
  /// Default ceiling on retained events and spans (each). Overridable at
  /// process start via PROXYSTORE_TRACE_CAP (positive integer) and at
  /// runtime via set_capacity().
  static constexpr std::size_t kDefaultCapacity = 65536;
  /// Flight ring byte budget unless PROXYSTORE_FLIGHT_BUDGET sets one.
  static constexpr std::size_t kDefaultFlightBudget = 8u << 20;  // 8 MiB

  /// A debugging buffer; every span it records is also fed to flight().
  TraceRecorder();
  /// A flight ring: always enabled, no count cap, a byte budget, and drops
  /// kept out of "trace.dropped.spans".
  struct FlightRing {};
  explicit TraceRecorder(FlightRing);

  static TraceRecorder& global();
  /// The process-wide flight ring (obs/flight.hpp): global().clear()
  /// leaves it intact.
  static TraceRecorder& flight();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends an event (no-op while disabled). Oldest events are dropped
  /// once the buffer exceeds capacity.
  void record(const std::string& subject, const std::string& event);

  /// Appends a closed span (no-op while disabled). Oldest spans are
  /// dropped once the buffer exceeds capacity or byte budget.
  void record_span(SpanRecord span);

  /// All events for one subject, in record order.
  std::vector<TraceEvent> timeline(const std::string& subject) const;

  std::vector<TraceEvent> events() const;
  std::vector<SpanRecord> spans() const;
  std::size_t size() const;
  std::size_t span_count() const;
  void clear();

  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Bound on the retained spans' approx_span_bytes (0 becomes 1); the
  /// newest span always stays.
  void set_budget(std::size_t budget_bytes);
  std::size_t budget() const;

  /// Monotonic counts of records evicted by the capacity ceiling or budget
  /// (never reset by clear(); mirrored into the metrics registry as
  /// "trace.dropped.events" / "trace.dropped.spans").
  std::uint64_t dropped_events() const {
    return dropped_events_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }

  /// Wall seconds since the recorder's origin (the clock span timestamps
  /// are expressed in).
  double wall_now() const;

 private:
  /// With mu_ held: evicts spans per record_span; returns how many went.
  std::size_t trim_spans();
  void note_dropped(std::size_t events, std::size_t spans);

  const bool flight_ring_ = false;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::deque<TraceEvent> events_;
  std::deque<SpanRecord> spans_;
  std::size_t span_bytes_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t budget_ = SIZE_MAX;
  std::atomic<std::uint64_t> dropped_events_{0};
  std::atomic<std::uint64_t> dropped_spans_{0};
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

}  // namespace ps::obs
