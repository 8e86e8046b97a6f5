// The benchmark's own span recorder (traced runs only).
//
// Spans are recorded from the benchmark's files around each call into a
// layer's public functions — workflow::ColmenaApp, core::Store / Proxy,
// the TimedConnector around every Connector verb — and kept in memory until
// the rep ends. Every measured op has a root span; spans that begin while an
// op is current belong to it, including spans on the ColmenaApp worker
// thread.
//
// Self time is exclusive time along the op's blocking path: each instant of
// the root's window is charged to exactly one open span — one on another
// thread first (the main thread is blocked waiting for it), else the
// deepest one on the main thread. The self times of an op's spans therefore
// add up to its root's wall time; the root's own share is the benchmark's
// time.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoOp =
    std::numeric_limits<std::uint32_t>::max();

struct SpanRecord {
  const char* name = "";
  std::uint32_t op = kNoOp;
  std::uint32_t depth = 0;
  bool other_thread = false;
  bool failed = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Virtual time the call charged its caller.
  double vtime_s = 0.0;
  /// Payload bytes the call moved (connector verbs).
  double bytes = 0.0;
  /// kv.client.queue_wait_s gauge read right after the call (kv verbs).
  double queue_wait_s = 0.0;
};

/// Per-span-name totals over the measured ops of one rep.
struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double self_s = 0.0;
  double vtime_s = 0.0;
  double bytes = 0.0;
  double queue_wait_s = 0.0;
};

class Tracer {
 public:
  /// Becomes the active tracer; the constructing thread is the main thread.
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The active tracer, or nullptr when the rep is untraced.
  static Tracer* active();

  /// Spans that begin from now on belong to measured op `op` (kNoOp for
  /// set-up and warm-up work, which is not attributed).
  void set_op(std::uint32_t op) { op_.store(op, std::memory_order_release); }
  std::uint32_t op() const { return op_.load(std::memory_order_acquire); }

  bool on_main_thread() const {
    return std::this_thread::get_id() == main_;
  }

  void record(const SpanRecord& span);

  struct Summary {
    std::map<std::string, LayerTotals> layers;
    std::uint64_t ops = 0;
    /// Sum of root (op) wall durations.
    double op_wall_s = 0.0;
    /// Root self time: the benchmark's own time inside op windows.
    double bench_self_s = 0.0;
    /// Sum of every attributed self time, root included; equals op_wall_s.
    double attributed_s = 0.0;
  };
  Summary summarize() const;

 private:
  const std::thread::id main_;
  std::atomic<std::uint32_t> op_{kNoOp};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

std::int64_t now_ns();

/// Root span of one measured op; no-op without an active tracer.
class OpScope {
 public:
  OpScope(Tracer* tracer, std::uint32_t op);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  Tracer* tracer_;
  SpanRecord root_;
};

/// One call into a layer; no-op without an active tracer.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_failed() { record_.failed = true; }
  void set_bytes(double bytes) { record_.bytes = bytes; }
  void set_queue_wait(double seconds) { record_.queue_wait_s = seconds; }
  /// Overrides the vtime delta (async verbs complete at a future's stamp).
  void set_vtime(double seconds) {
    record_.vtime_s = seconds;
    vtime_fixed_ = true;
  }
  bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
  double vtime0_ = 0.0;
  bool vtime_fixed_ = false;
  int uncaught_ = 0;
};

/// Per-layer metrics derived from a rep's spans: calls and mean wall / self
/// / vtime per call for the core, connectors and workflow layers, the kv
/// client's mean queue-wait gauge, and the attribution totals.
std::map<std::string, double> layer_metrics(const Tracer::Summary& summary);

}  // namespace perfbench
