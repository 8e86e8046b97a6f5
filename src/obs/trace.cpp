#include "obs/trace.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "sim/vtime.hpp"

namespace ps::obs {

namespace {

/// Drops the oldest entries past `capacity`; returns how many went.
template <typename T>
std::size_t trim_to(std::deque<T>& records, std::size_t capacity) {
  const std::size_t excess =
      records.size() > capacity ? records.size() - capacity : 0;
  records.erase(records.begin(),
                records.begin() + static_cast<std::ptrdiff_t>(excess));
  return excess;
}

}  // namespace

SpanIndex::SpanIndex(const std::vector<SpanRecord>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceContext& ctx = spans[i].ctx;
    by_id.emplace(key(ctx, ctx.span_id), i);
    children[key(ctx, ctx.parent_span_id)].push_back(i);
  }
}

TraceRecorder::TraceRecorder() {
  if (const char* cap = std::getenv("PROXYSTORE_TRACE_CAP")) {
    const unsigned long long v = std::strtoull(cap, nullptr, 10);
    if (v > 0) capacity_ = static_cast<std::size_t>(v);
  }
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

void TraceRecorder::note_dropped_events(std::size_t n) {
  if (n == 0) return;
  dropped_events_.fetch_add(n, std::memory_order_relaxed);
  // Lazily resolved once: registry references stay valid for process life.
  static Counter& counter =
      MetricsRegistry::global().counter("trace.dropped.events");
  counter.inc(n);
}

void TraceRecorder::note_dropped_spans(std::size_t n) {
  if (n == 0) return;
  dropped_spans_.fetch_add(n, std::memory_order_relaxed);
  static Counter& counter =
      MetricsRegistry::global().counter("trace.dropped.spans");
  counter.inc(n);
}

void TraceRecorder::record(const std::string& subject,
                           const std::string& event) {
  if (!enabled()) return;
  TraceEvent e;
  e.subject = subject;
  e.name = event;
  e.wall_s = wall_now();
  e.vtime_s = sim::vnow();
  e.ctx = current_context();
  std::size_t dropped = 0;
  {
    std::lock_guard lock(mu_);
    events_.push_back(std::move(e));
    dropped = trim_to(events_, capacity_);
  }
  note_dropped_events(dropped);
}

void TraceRecorder::record_span(SpanRecord span) {
  if (!enabled()) return;
  // The flight recorder keeps its own (byte-budgeted) copy so a breach
  // snapshot survives even after this buffer has rolled past the span.
  FlightRecorder::global().record(span);
  std::size_t dropped = 0;
  {
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(span));
    dropped = trim_to(spans_, capacity_);
  }
  note_dropped_spans(dropped);
}

std::vector<TraceEvent> TraceRecorder::timeline(
    const std::string& subject) const {
  std::lock_guard lock(mu_);
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.subject == subject) out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard lock(mu_);
  return {events_.begin(), events_.end()};
}

std::vector<SpanRecord> TraceRecorder::spans() const {
  std::lock_guard lock(mu_);
  return {spans_.begin(), spans_.end()};
}

std::size_t TraceRecorder::size() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

std::size_t TraceRecorder::span_count() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  events_.clear();
  spans_.clear();
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  std::size_t dropped_events = 0;
  std::size_t dropped_spans = 0;
  {
    std::lock_guard lock(mu_);
    capacity_ = capacity == 0 ? 1 : capacity;
    dropped_events = trim_to(events_, capacity_);
    dropped_spans = trim_to(spans_, capacity_);
  }
  note_dropped_events(dropped_events);
  note_dropped_spans(dropped_spans);
}

std::size_t TraceRecorder::capacity() const {
  std::lock_guard lock(mu_);
  return capacity_;
}

double TraceRecorder::wall_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::string TraceRecorder::dump_json() const {
  std::lock_guard lock(mu_);
  std::string out = "[";
  bool first = true;
  char buf[64];
  for (const TraceEvent& e : events_) {
    if (!first) out += ",";
    first = false;
    out += "{\"subject\":\"" + e.subject + "\",\"event\":\"" + e.name + "\"";
    std::snprintf(buf, sizeof(buf), ",\"wall_s\":%.9f,\"vtime_s\":%.9f}",
                  e.wall_s, e.vtime_s);
    out += buf;
  }
  out += "]";
  return out;
}

Span::Span(std::string subject, std::string name)
    : subject_(std::move(subject)), name_(std::move(name)) {
  active_ = TraceRecorder::global().enabled();
  if (active_) TraceRecorder::global().record(subject_, name_ + ".start");
}

Span::~Span() {
  if (active_) TraceRecorder::global().record(subject_, name_ + ".done");
}

}  // namespace ps::obs
