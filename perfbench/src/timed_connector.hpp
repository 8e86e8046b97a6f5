// TimedConnector: a decorator that records a span around every Connector
// verb of the connector it wraps.
//
// It registers its own type ("timed") with core::ConnectorRegistry and its
// config carries the inner connector's config, so a store rebuilt from a
// proxy's factory in another simulated process (the bulk-handoff consumer,
// the ColmenaApp worker) is wrapped too. Spans record only while a Tracer
// is active; the decorator never touches the virtual clock, so a traced rep
// charges exactly the vtime of an untraced one.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/connector.hpp"

namespace perfbench {

class TimedConnector : public ps::core::Connector {
 public:
  static constexpr const char* kType = "timed";

  explicit TimedConnector(std::shared_ptr<ps::core::Connector> inner);

  /// Wraps a fresh connector rebuilt from `inner` in this process.
  static std::shared_ptr<TimedConnector> wrap(
      const ps::core::ConnectorConfig& inner);

  /// Bytes a serialized proxy over a TimedConnector carries beyond the same
  /// proxy over its inner connector (the wrapper's extra config entry).
  static std::size_t descriptor_overhead(
      const ps::core::ConnectorConfig& inner);

  std::string type() const override { return kType; }
  ps::core::ConnectorConfig config() const override;
  ps::core::ConnectorTraits traits() const override { return inner_->traits(); }

  ps::core::Key put(ps::BytesView data) override;
  ps::core::Key put_hinted(ps::BytesView data,
                           const ps::core::PutHints& hints) override;
  bool put_at(const ps::core::Key& key, ps::BytesView data) override;
  ps::core::Key reserve_key() override;
  std::vector<ps::core::Key> put_batch(
      const std::vector<ps::Bytes>& items) override;
  std::optional<ps::Bytes> get(const ps::core::Key& key) override;
  std::vector<std::optional<ps::Bytes>> get_batch(
      const std::vector<ps::core::Key>& keys) override;
  bool exists(const ps::core::Key& key) override;
  std::vector<bool> exists_batch(
      const std::vector<ps::core::Key>& keys) override;
  void evict(const ps::core::Key& key) override;
  void evict_batch(const std::vector<ps::core::Key>& keys) override;

  ps::core::Future<std::optional<ps::Bytes>> get_async(
      const ps::core::Key& key) override;
  ps::core::Future<ps::core::Key> put_async(ps::BytesView data) override;
  ps::core::Future<bool> exists_async(const ps::core::Key& key) override;
  ps::core::Future<ps::core::Unit> evict_async(
      const ps::core::Key& key) override;
  ps::core::Future<std::vector<std::optional<ps::Bytes>>> get_batch_async(
      const std::vector<ps::core::Key>& keys) override;

  void close() override { inner_->close(); }

 private:
  std::shared_ptr<ps::core::Connector> inner_;
};

}  // namespace perfbench
