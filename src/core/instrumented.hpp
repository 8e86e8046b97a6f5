// InstrumentedConnector: metrics decorator over any Connector.
//
// Wraps a connector and times every data verb per connector *type* —
// counters "connector.<type>.<op>" plus latency histograms ".vtime"
// (virtual seconds, deterministic) and ".wall" (real seconds), and an
// ".items" histogram per batch verb. Everything else — config, traits,
// hints, addressed writes — passes through untouched, so a wrapped
// connector is substitutable anywhere the raw one is: proxies minted against
// it reconstruct the *raw* connector type from config() in other processes.
// Each op records through obs::SiteMetric handles: into the global registry,
// or into the calling process's registry under per-process metrics scoping.
// Per-op overhead when the global obs switch is off is a single relaxed load.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/connector.hpp"
#include "obs/metrics.hpp"

namespace ps::core {

class InstrumentedConnector : public Connector {
 public:
  explicit InstrumentedConnector(std::shared_ptr<Connector> inner);

  /// Wraps `inner` unless it is already instrumented (idempotent).
  static std::shared_ptr<Connector> wrap(std::shared_ptr<Connector> inner);

  std::string type() const override { return inner_->type(); }
  ConnectorConfig config() const override { return inner_->config(); }
  ConnectorTraits traits() const override { return inner_->traits(); }

  Key put(BytesView data) override;
  Key put_hinted(BytesView data, const PutHints& hints) override;
  bool put_at(const Key& key, BytesView data) override;
  Key reserve_key() override;
  std::vector<Key> put_batch(const std::vector<Bytes>& items) override;
  std::optional<Bytes> get(const Key& key) override;
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<Key>& keys) override;
  bool exists(const Key& key) override;
  std::vector<bool> exists_batch(const std::vector<Key>& keys) override;
  void evict(const Key& key) override;
  void evict_batch(const std::vector<Key>& keys) override;
  void close() override;

  // Async reads forward to the inner connector's async path and record
  // end-to-end latency (submit → completion) via an on_ready continuation.
  // The queue-wait vs service-time split for adapter-backed ops lives in
  // the async.executor.* histograms, where both sides of the hand-off are
  // visible. put_async, exists_async and evict_async reach the base
  // adapter, which runs this decorator's sync verb, so they record as
  // put, exists and evict.
  Future<std::optional<Bytes>> get_async(const Key& key) override;
  Future<std::vector<std::optional<Bytes>>> get_batch_async(
      const std::vector<Key>& keys) override;

  Connector& inner() { return *inner_; }
  const Connector& inner() const { return *inner_; }

 private:
  /// Metric handles for one operation.
  struct Op {
    Op(const std::string& type, const char* op, bool batch = false);

    /// "connector.<type>.<op>"; its name is also the op's trace span name.
    obs::SiteCounter count;
    obs::SiteHistogram vtime;
    obs::SiteHistogram wall;
    /// Items per call of a batch verb ("connector.<type>.<op>.items") —
    /// makes batching visible: many small batches vs few large ones read
    /// directly off count/mean.
    std::optional<obs::SiteHistogram> items;
  };

  /// Runs one synchronous op under its span, counted and timed; a batch
  /// verb also records its `items`.
  template <typename Fn>
  auto timed(const Op& op, Fn&& fn, std::size_t items = 0);

  /// Counts the op and observes end-to-end latency when `future` completes.
  template <typename T>
  Future<T> record_async(const Op& op, Future<T> future);

  std::shared_ptr<Connector> inner_;
  Op put_;
  Op get_;
  Op exists_;
  Op evict_;
  Op put_batch_;
  Op get_batch_;
  Op exists_batch_;
  Op evict_batch_;
  Op get_async_;
  Op get_batch_async_;
};

}  // namespace ps::core
