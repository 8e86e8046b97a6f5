#include "connectors/globus.hpp"

#include <fstream>

#include "common/file.hpp"
#include "common/uuid.hpp"
#include "connectors/costs.hpp"

namespace ps::connectors {

namespace fs = std::filesystem;

GlobusConnector::GlobusConnector(std::vector<GlobusEndpointSpec> endpoints)
    : endpoints_(std::move(endpoints)),
      service_(globus::TransferService::connect()) {
  if (endpoints_.size() < 2) {
    throw ConnectorError("GlobusConnector: needs at least two endpoints");
  }
}

core::ConnectorConfig GlobusConnector::config() const {
  core::ConnectorConfig cfg{.type = "globus", .params = {}};
  cfg.params["count"] = std::to_string(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const std::string idx = std::to_string(i);
    cfg.params["pattern_" + idx] = endpoints_[i].host_pattern;
    cfg.params["endpoint_" + idx] = endpoints_[i].endpoint.str();
  }
  return cfg;
}

core::ConnectorTraits GlobusConnector::traits() const {
  return core::ConnectorTraits{.storage = "disk",
                               .intra_site = false,
                               .inter_site = true,
                               .persistent = true};
}

const GlobusEndpointSpec& GlobusConnector::local_endpoint() const {
  const std::string& host = current_host();
  for (const GlobusEndpointSpec& spec : endpoints_) {
    if (std::regex_search(host, std::regex(spec.host_pattern))) return spec;
  }
  throw ConnectorError("GlobusConnector: no endpoint pattern matches host '" +
                       host + "'");
}

core::Key GlobusConnector::put(BytesView data) {
  std::vector<core::Key> keys = put_batch({Bytes(data)});
  return std::move(keys.front());
}

std::vector<core::Key> GlobusConnector::put_batch(
    const std::vector<Bytes>& items) {
  const GlobusEndpointSpec& local = local_endpoint();
  const fs::path dir = service_->endpoint_dir(local.endpoint);

  std::vector<core::Key> keys;
  std::vector<std::string> files;
  keys.reserve(items.size());
  files.reserve(items.size());
  for (const Bytes& item : items) {
    core::Key key{.object_id = Uuid::random().str(), .meta = {}};
    write_file(dir / key.object_id, item);
    charge_disk_write(item.size());
    key.meta["source"] = local.endpoint.str();
    files.push_back(key.object_id);
    keys.push_back(std::move(key));
  }

  // One transfer task per remote destination for the whole batch
  // (Store::proxy_batch -> a single Globus transfer; paper section 4.2.1).
  for (const GlobusEndpointSpec& spec : endpoints_) {
    if (spec.endpoint == local.endpoint) continue;
    const Uuid task = service_->submit(local.endpoint, spec.endpoint, files);
    for (core::Key& key : keys) {
      key.meta["task_" + spec.endpoint.str()] = task.str();
    }
  }
  return keys;
}

std::optional<Bytes> GlobusConnector::get(const core::Key& key) {
  const GlobusEndpointSpec& local = local_endpoint();
  // If this host is not the producing endpoint, the object arrives via a
  // transfer task: wait for it (raising TransferError on failure).
  if (key.field("source") != local.endpoint.str()) {
    const auto it = key.meta.find("task_" + local.endpoint.str());
    if (it == key.meta.end()) {
      throw ConnectorError(
          "GlobusConnector: no transfer task targets this endpoint");
    }
    service_->wait(Uuid::parse(it->second));
  }
  const fs::path path = service_->endpoint_dir(local.endpoint) / key.object_id;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  charge_disk_read(data.size());
  return data;
}

bool GlobusConnector::exists(const core::Key& key) {
  const GlobusEndpointSpec& local = local_endpoint();
  if (key.field("source") != local.endpoint.str()) {
    const auto it = key.meta.find("task_" + local.endpoint.str());
    if (it == key.meta.end()) return false;
    if (service_->status(Uuid::parse(it->second)) ==
        globus::TaskStatus::kFailed) {
      return false;
    }
  }
  // The file may still be in flight; existence means "will be available".
  const fs::path path = service_->endpoint_dir(local.endpoint) / key.object_id;
  return fs::exists(path) || key.field("source") != local.endpoint.str();
}

void GlobusConnector::evict(const core::Key& key) {
  // Transfers copy the file into every destination when submitted, so each
  // endpoint's directory holds a copy to remove.
  std::error_code ec;
  for (const GlobusEndpointSpec& spec : endpoints_) {
    fs::remove(service_->endpoint_dir(spec.endpoint) / key.object_id, ec);
  }
}

namespace {
const core::ConnectorRegistration kRegister(
    "globus", [](const core::ConnectorConfig& cfg) {
      const std::size_t count = std::stoul(cfg.param("count"));
      std::vector<GlobusEndpointSpec> endpoints;
      endpoints.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::string idx = std::to_string(i);
        endpoints.push_back(GlobusEndpointSpec{
            cfg.param("pattern_" + idx),
            Uuid::parse(cfg.param("endpoint_" + idx))});
      }
      return std::static_pointer_cast<core::Connector>(
          std::make_shared<GlobusConnector>(std::move(endpoints)));
    });
}  // namespace

}  // namespace ps::connectors
