#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "sim/vtime.hpp"

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};
thread_local std::uint32_t t_depth = 0;

constexpr const char* kRootName = "op";

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : main_(std::this_thread::get_id()) {
  spans_.reserve(1 << 16);
  g_active.store(this, std::memory_order_release);
}

Tracer::~Tracer() { g_active.store(nullptr, std::memory_order_release); }

Tracer* Tracer::active() { return g_active.load(std::memory_order_acquire); }

void Tracer::record(const SpanRecord& span) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

Tracer::Summary Tracer::summarize() const {
  std::lock_guard lock(mu_);
  std::map<std::uint32_t, std::vector<const SpanRecord*>> by_op;
  for (const SpanRecord& span : spans_) {
    if (span.op != kNoOp) by_op[span.op].push_back(&span);
  }
  Summary summary;
  std::vector<std::int64_t> cuts;
  std::vector<double> self;
  for (const auto& [op, spans] : by_op) {
    const SpanRecord* root = nullptr;
    for (const SpanRecord* span : spans) {
      if (span->depth == 0 && !span->other_thread) root = span;
    }
    if (root == nullptr) continue;
    ++summary.ops;
    summary.op_wall_s +=
        1e-9 * static_cast<double>(root->end_ns - root->start_ns);

    // Sweep the root window over every span boundary inside it; charge each
    // elementary interval to the span with the highest priority open across
    // it: another thread's span first, then the deepest main-thread span.
    cuts.clear();
    for (const SpanRecord* span : spans) {
      cuts.push_back(std::clamp(span->start_ns, root->start_ns, root->end_ns));
      cuts.push_back(std::clamp(span->end_ns, root->start_ns, root->end_ns));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    self.assign(spans.size(), 0.0);
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      const std::int64_t a = cuts[c];
      const std::int64_t b = cuts[c + 1];
      std::size_t best = spans.size();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& span = *spans[i];
        if (span.start_ns > a || span.end_ns < b) continue;
        if (best == spans.size()) {
          best = i;
          continue;
        }
        const SpanRecord& current = *spans[best];
        if (span.other_thread != current.other_thread) {
          if (span.other_thread) best = i;
        } else if (span.depth > current.depth) {
          best = i;
        }
      }
      if (best < spans.size()) self[best] += 1e-9 * static_cast<double>(b - a);
    }

    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = *spans[i];
      summary.attributed_s += self[i];
      if (&span == root) {
        summary.bench_self_s += self[i];
        continue;
      }
      LayerTotals& totals = summary.layers[span.name];
      ++totals.calls;
      if (span.failed) ++totals.failed;
      totals.wall_s += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
      totals.self_s += self[i];
      totals.vtime_s += span.vtime_s;
      totals.bytes += span.bytes;
      totals.queue_wait_s += span.queue_wait_s;
    }
  }
  return summary;
}

OpScope::OpScope(Tracer* tracer, std::uint32_t op) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  tracer_->set_op(op);
  root_.name = kRootName;
  root_.op = op;
  root_.depth = 0;
  t_depth = 0;
  root_.start_ns = now_ns();
}

OpScope::~OpScope() {
  if (tracer_ == nullptr) return;
  root_.end_ns = now_ns();
  tracer_->record(root_);
  tracer_->set_op(kNoOp);
}

Span::Span(const char* name) : tracer_(Tracer::active()) {
  if (tracer_ == nullptr) return;
  record_.name = name;
  record_.op = tracer_->op();
  record_.depth = ++t_depth;
  record_.other_thread = !tracer_->on_main_thread();
  uncaught_ = std::uncaught_exceptions();
  vtime0_ = ps::sim::vnow();
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = now_ns();
  --t_depth;
  if (std::uncaught_exceptions() > uncaught_) record_.failed = true;
  if (!vtime_fixed_) record_.vtime_s = ps::sim::vnow() - vtime0_;
  tracer_->record(record_);
}

std::map<std::string, double> layer_metrics(const Tracer::Summary& summary) {
  std::map<std::string, double> out;
  const auto totals = [&](const std::string& name) {
    const auto it = summary.layers.find(name);
    return it == summary.layers.end() ? LayerTotals{} : it->second;
  };
  const auto per_call = [](double total, std::uint64_t calls) {
    return calls == 0 ? 0.0 : total / static_cast<double>(calls);
  };

  for (const char* op :
       {"get", "put", "proxy", "resolve", "resolve_batch", "evict"}) {
    const std::string name = std::string("core.") + op;
    const LayerTotals t = totals(name);
    out[name + ".calls"] = static_cast<double>(t.calls);
    out[name + ".wall_us"] = 1e6 * per_call(t.wall_s, t.calls);
    out[name + ".self_wall_us"] = 1e6 * per_call(t.self_s, t.calls);
  }

  double queue_wait_s = 0.0;
  std::uint64_t kv_calls = 0;
  for (const auto& [name, t] : summary.layers) {
    if (name.rfind("connectors.", 0) != 0) continue;
    queue_wait_s += t.queue_wait_s;
    kv_calls += t.calls;
  }
  for (const char* verb : {"put", "get", "get_batch", "evict", "exists"}) {
    const std::string name = std::string("connectors.") + verb;
    const LayerTotals t = totals(name);
    out[name + ".calls"] = static_cast<double>(t.calls);
    out[name + ".wall_us"] = 1e6 * per_call(t.wall_s, t.calls);
    out[name + ".vtime_us"] = 1e6 * per_call(t.vtime_s, t.calls);
    out[name + ".failed"] = static_cast<double>(t.failed);
  }
  for (const char* verb : {"put", "get"}) {
    const std::string name = std::string("connectors.") + verb;
    const LayerTotals t = totals(name);
    out[name + ".wall_us_per_mb"] =
        t.bytes > 0.0 ? 1e6 * t.wall_s / (t.bytes / 1e6) : 0.0;
  }
  out["kv.client.queue_wait_ms"] = 1e3 * per_call(queue_wait_s, kv_calls);

  const LayerTotals submit = totals("workflow.submit");
  out["workflow.submit.wall_us"] = 1e6 * per_call(submit.wall_s, submit.calls);
  out["workflow.submit.self_wall_us"] =
      1e6 * per_call(submit.self_s, submit.calls);
  const LayerTotals wait = totals("workflow.result_wait");
  out["workflow.result_wait.wall_us"] = 1e6 * per_call(wait.wall_s, wait.calls);
  out["workflow.result_wait.vtime_ms"] =
      1e3 * per_call(wait.vtime_s, wait.calls);
  const LayerTotals task = totals("workflow.task");
  out["workflow.task.wall_us"] = 1e6 * per_call(task.wall_s, task.calls);

  out["trace.op_wall_us"] = 1e6 * per_call(summary.op_wall_s, summary.ops);
  out["trace.bench_self_us"] =
      1e6 * per_call(summary.bench_self_s, summary.ops);
  out["trace.attributed_share"] =
      summary.op_wall_s > 0.0 ? summary.attributed_s / summary.op_wall_s : 0.0;
  return out;
}

}  // namespace perfbench
