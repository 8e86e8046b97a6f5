#include "connectors/local.hpp"

#include "common/uuid.hpp"
#include "connectors/costs.hpp"

namespace ps::connectors {

LocalConnector::LocalConnector()
    : address_("local://" + Uuid::random().str()),
      table_(std::make_shared<Table>()) {
  current_world().services().bind<Table>(address_, table_);
}

LocalConnector::LocalConnector(const std::string& address)
    : address_(address),
      table_(current_world().services().resolve<Table>(address)) {}

core::ConnectorConfig LocalConnector::config() const {
  return core::ConnectorConfig{.type = "local",
                               .params = {{"address", address_}}};
}

core::ConnectorTraits LocalConnector::traits() const {
  return core::ConnectorTraits{.storage = "memory",
                               .intra_site = true,
                               .inter_site = false,
                               .persistent = false};
}

core::Key LocalConnector::put(BytesView data) {
  charge_mem(data.size());
  core::Key key{.object_id = Uuid::random().str(), .meta = {}};
  std::lock_guard lock(table_->mu);
  table_->objects.emplace(key.object_id, Bytes(data));
  return key;
}

std::optional<Bytes> LocalConnector::get(const core::Key& key) {
  std::lock_guard lock(table_->mu);
  const auto it = table_->objects.find(key.object_id);
  if (it == table_->objects.end()) return std::nullopt;
  charge_mem(it->second.size());
  return it->second;
}

std::vector<std::optional<Bytes>> LocalConnector::get_batch(
    const std::vector<core::Key>& keys) {
  std::vector<std::optional<Bytes>> out;
  out.reserve(keys.size());
  std::lock_guard lock(table_->mu);
  for (const core::Key& key : keys) {
    const auto it = table_->objects.find(key.object_id);
    if (it == table_->objects.end()) {
      out.emplace_back(std::nullopt);
      continue;
    }
    charge_mem(it->second.size());
    out.emplace_back(it->second);
  }
  return out;
}

core::Future<std::optional<Bytes>> LocalConnector::get_async(
    const core::Key& key) {
  return core::make_ready_future(get(key));
}

bool LocalConnector::exists(const core::Key& key) {
  std::lock_guard lock(table_->mu);
  return table_->objects.contains(key.object_id);
}

std::vector<bool> LocalConnector::exists_batch(
    const std::vector<core::Key>& keys) {
  std::vector<bool> out;
  out.reserve(keys.size());
  std::lock_guard lock(table_->mu);
  for (const core::Key& key : keys) {
    out.push_back(table_->objects.contains(key.object_id));
  }
  return out;
}

void LocalConnector::evict(const core::Key& key) {
  std::lock_guard lock(table_->mu);
  table_->objects.erase(key.object_id);
}

bool LocalConnector::put_at(const core::Key& key, BytesView data) {
  charge_mem(data.size());
  std::lock_guard lock(table_->mu);
  table_->objects.insert_or_assign(key.object_id, Bytes(data));
  return true;
}

core::Key LocalConnector::reserve_key() {
  return core::Key{.object_id = Uuid::random().str(), .meta = {}};
}

std::size_t LocalConnector::count() const {
  std::lock_guard lock(table_->mu);
  return table_->objects.size();
}

namespace {
const core::ConnectorRegistration kRegister(
    "local", [](const core::ConnectorConfig& cfg) {
      return std::static_pointer_cast<core::Connector>(
          std::make_shared<LocalConnector>(cfg.param("address")));
    });
}  // namespace

}  // namespace ps::connectors
