#include "obs/trace.hpp"

#include <cstdlib>

#include "obs/metrics.hpp"
#include "sim/vtime.hpp"

namespace ps::obs {

namespace {

/// Drops the oldest events past `capacity`; returns how many went.
std::size_t trim_to(std::deque<TraceEvent>& records, std::size_t capacity) {
  const std::size_t excess =
      records.size() > capacity ? records.size() - capacity : 0;
  records.erase(records.begin(),
                records.begin() + static_cast<std::ptrdiff_t>(excess));
  return excess;
}

/// A positive integer from the environment, else `fallback`.
std::size_t env_size(const char* name, std::size_t fallback) {
  const char* text = std::getenv(name);
  const unsigned long long v =
      text == nullptr ? 0 : std::strtoull(text, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

}  // namespace

std::size_t approx_span_bytes(const SpanRecord& span) {
  return sizeof(SpanRecord) + span.name.size() + span.subject.size() +
         span.kind.size() + span.process.size() + span.host.size() +
         span.site.size();
}

SpanIndex::SpanIndex(const std::vector<SpanRecord>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceContext& ctx = spans[i].ctx;
    by_id.emplace(key(ctx, ctx.span_id), i);
    children[key(ctx, ctx.parent_span_id)].push_back(i);
  }
}

TraceRecorder::TraceRecorder()
    : capacity_(env_size("PROXYSTORE_TRACE_CAP", kDefaultCapacity)) {}

TraceRecorder::TraceRecorder(FlightRing)
    : flight_ring_(true),
      enabled_(true),
      capacity_(SIZE_MAX),
      budget_(env_size("PROXYSTORE_FLIGHT_BUDGET", kDefaultFlightBudget)) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

TraceRecorder& TraceRecorder::flight() {
  static TraceRecorder* ring = new TraceRecorder(FlightRing{});  // never freed
  return *ring;
}

std::size_t TraceRecorder::trim_spans() {
  std::size_t dropped = 0;
  while (spans_.size() > capacity_ ||
         (span_bytes_ > budget_ && spans_.size() > 1)) {
    span_bytes_ -= approx_span_bytes(spans_.front());
    spans_.pop_front();
    ++dropped;
  }
  return dropped;
}

void TraceRecorder::note_dropped(std::size_t events, std::size_t spans) {
  if (events + spans == 0) return;
  dropped_events_.fetch_add(events, std::memory_order_relaxed);
  dropped_spans_.fetch_add(spans, std::memory_order_relaxed);
  if (flight_ring_) return;
  // Lazily resolved once: registry references stay valid for process life.
  if (events > 0) {
    static Counter& counter =
        MetricsRegistry::global().counter("trace.dropped.events");
    counter.inc(events);
  }
  if (spans > 0) {
    static Counter& counter =
        MetricsRegistry::global().counter("trace.dropped.spans");
    counter.inc(spans);
  }
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
  note_dropped(dropped, 0);
}

void TraceRecorder::record_span(SpanRecord span) {
  if (!enabled()) return;
  // The flight ring keeps its own (byte-budgeted) copy so a breach
  // snapshot survives even after this buffer has rolled past the span.
  if (!flight_ring_) flight().record_span(span);
  const std::size_t cost = approx_span_bytes(span);
  std::size_t dropped = 0;
  {
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(span));
    span_bytes_ += cost;
    dropped = trim_spans();
  }
  note_dropped(0, dropped);
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
  span_bytes_ = 0;
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  std::size_t dropped_events = 0;
  std::size_t dropped_spans = 0;
  {
    std::lock_guard lock(mu_);
    capacity_ = capacity == 0 ? 1 : capacity;
    dropped_events = trim_to(events_, capacity_);
    dropped_spans = trim_spans();
  }
  note_dropped(dropped_events, dropped_spans);
}

std::size_t TraceRecorder::capacity() const {
  std::lock_guard lock(mu_);
  return capacity_;
}

void TraceRecorder::set_budget(std::size_t budget_bytes) {
  std::size_t dropped = 0;
  {
    std::lock_guard lock(mu_);
    budget_ = budget_bytes == 0 ? 1 : budget_bytes;
    dropped = trim_spans();
  }
  note_dropped(0, dropped);
}

std::size_t TraceRecorder::budget() const {
  std::lock_guard lock(mu_);
  return budget_;
}

double TraceRecorder::wall_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

}  // namespace ps::obs
