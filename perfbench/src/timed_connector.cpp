#include "timed_connector.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace core = ps::core;

namespace {

constexpr const char* kInnerParam = "inner";

/// The kv client's backlog gauge, read right after a verb returns.
double queue_wait_gauge() {
  return ps::obs::MetricsRegistry::ambient()
      .gauge("kv.client.queue_wait_s", ps::obs::GaugeAgg::kMax)
      .value();
}

/// Runs `call` under a span named `name`; `bytes` maps its result to the
/// payload bytes it moved.
template <typename Call, typename BytesOf>
auto timed(const char* name, double request_bytes, Call&& call,
           BytesOf&& bytes_of) {
  Span span(name);
  auto result = call();
  if (span.active()) {
    span.set_bytes(request_bytes + bytes_of(result));
    span.set_queue_wait(queue_wait_gauge());
  }
  return result;
}

const auto kNoBytes = [](const auto&) { return 0.0; };

/// Async verbs return immediately; their vtime is the future's completion
/// stamp relative to issue.
template <typename Call>
auto timed_async(const char* name, double request_bytes, Call&& call) {
  Span span(name);
  const double issued = ps::sim::vnow();
  auto future = call();
  if (span.active()) {
    span.set_bytes(request_bytes);
    if (future.ready()) span.set_vtime(future.done_vtime() - issued);
  }
  return future;
}

double total_size(const std::vector<std::optional<ps::Bytes>>& values) {
  double total = 0.0;
  for (const auto& value : values) {
    if (value) total += static_cast<double>(value->size());
  }
  return total;
}

}  // namespace

TimedConnector::TimedConnector(std::shared_ptr<core::Connector> inner)
    : inner_(std::move(inner)) {}

std::shared_ptr<TimedConnector> TimedConnector::wrap(
    const core::ConnectorConfig& inner) {
  return std::make_shared<TimedConnector>(
      core::ConnectorRegistry::instance().reconstruct(inner));
}

std::size_t TimedConnector::descriptor_overhead(
    const core::ConnectorConfig& inner) {
  core::ConnectorConfig wrapped{kType, inner.params};
  wrapped.params[kInnerParam] = inner.type;
  return ps::serde::to_bytes(wrapped).size() -
         ps::serde::to_bytes(inner).size();
}

core::ConnectorConfig TimedConnector::config() const {
  core::ConnectorConfig inner = inner_->config();
  core::ConnectorConfig wrapped{kType, std::move(inner.params)};
  wrapped.params[kInnerParam] = inner.type;
  return wrapped;
}

core::Key TimedConnector::put(ps::BytesView data) {
  return timed("connectors.put", static_cast<double>(data.size()),
               [&] { return inner_->put(data); }, kNoBytes);
}

core::Key TimedConnector::put_hinted(ps::BytesView data,
                                     const core::PutHints& hints) {
  return timed("connectors.put", static_cast<double>(data.size()),
               [&] { return inner_->put_hinted(data, hints); }, kNoBytes);
}

bool TimedConnector::put_at(const core::Key& key, ps::BytesView data) {
  return timed("connectors.put_at", static_cast<double>(data.size()),
               [&] { return inner_->put_at(key, data); }, kNoBytes);
}

core::Key TimedConnector::reserve_key() {
  return timed("connectors.reserve_key", 0.0,
               [&] { return inner_->reserve_key(); }, kNoBytes);
}

std::vector<core::Key> TimedConnector::put_batch(
    const std::vector<ps::Bytes>& items) {
  double total = 0.0;
  for (const ps::Bytes& item : items) total += static_cast<double>(item.size());
  return timed("connectors.put_batch", total,
               [&] { return inner_->put_batch(items); }, kNoBytes);
}

std::optional<ps::Bytes> TimedConnector::get(const core::Key& key) {
  Span span("connectors.get");
  std::optional<ps::Bytes> value = inner_->get(key);
  if (span.active()) {
    if (!value) span.set_failed();  // every workload reads only live keys
    span.set_bytes(value ? static_cast<double>(value->size()) : 0.0);
    span.set_queue_wait(queue_wait_gauge());
  }
  return value;
}

std::vector<std::optional<ps::Bytes>> TimedConnector::get_batch(
    const std::vector<core::Key>& keys) {
  Span span("connectors.get_batch");
  std::vector<std::optional<ps::Bytes>> values = inner_->get_batch(keys);
  if (span.active()) {
    for (const auto& value : values) {
      if (!value) span.set_failed();
    }
    span.set_bytes(total_size(values));
    span.set_queue_wait(queue_wait_gauge());
  }
  return values;
}

bool TimedConnector::exists(const core::Key& key) {
  return timed("connectors.exists", 0.0, [&] { return inner_->exists(key); },
               kNoBytes);
}

std::vector<bool> TimedConnector::exists_batch(
    const std::vector<core::Key>& keys) {
  return timed("connectors.exists_batch", 0.0,
               [&] { return inner_->exists_batch(keys); }, kNoBytes);
}

void TimedConnector::evict(const core::Key& key) {
  Span span("connectors.evict");
  inner_->evict(key);
  if (span.active()) span.set_queue_wait(queue_wait_gauge());
}

void TimedConnector::evict_batch(const std::vector<core::Key>& keys) {
  Span span("connectors.evict_batch");
  inner_->evict_batch(keys);
  if (span.active()) span.set_queue_wait(queue_wait_gauge());
}

core::Future<std::optional<ps::Bytes>> TimedConnector::get_async(
    const core::Key& key) {
  return timed_async("connectors.get_async", 0.0,
                     [&] { return inner_->get_async(key); });
}

core::Future<core::Key> TimedConnector::put_async(ps::BytesView data) {
  return timed_async("connectors.put_async", static_cast<double>(data.size()),
                     [&] { return inner_->put_async(data); });
}

core::Future<bool> TimedConnector::exists_async(const core::Key& key) {
  return timed_async("connectors.exists_async", 0.0,
                     [&] { return inner_->exists_async(key); });
}

core::Future<core::Unit> TimedConnector::evict_async(const core::Key& key) {
  return timed_async("connectors.evict_async", 0.0,
                     [&] { return inner_->evict_async(key); });
}

core::Future<std::vector<std::optional<ps::Bytes>>>
TimedConnector::get_batch_async(const std::vector<core::Key>& keys) {
  return timed_async("connectors.get_batch_async", 0.0,
                     [&] { return inner_->get_batch_async(keys); });
}

namespace {

const core::ConnectorRegistration kRegister(
    TimedConnector::kType, [](const core::ConnectorConfig& config) {
      core::ConnectorConfig inner{config.param(kInnerParam), config.params};
      inner.params.erase(kInnerParam);
      return std::static_pointer_cast<core::Connector>(
          TimedConnector::wrap(inner));
    });

}  // namespace

}  // namespace perfbench
