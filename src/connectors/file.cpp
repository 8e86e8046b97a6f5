#include "connectors/file.hpp"

#include <fstream>

#include "common/file.hpp"
#include "common/uuid.hpp"
#include "connectors/costs.hpp"

namespace ps::connectors {

namespace fs = std::filesystem;

FileConnector::FileConnector(fs::path store_dir)
    : store_dir_(std::move(store_dir)) {
  fs::create_directories(store_dir_);
}

core::ConnectorConfig FileConnector::config() const {
  return core::ConnectorConfig{.type = "file",
                               .params = {{"store_dir", store_dir_.string()}}};
}

core::ConnectorTraits FileConnector::traits() const {
  return core::ConnectorTraits{.storage = "disk",
                               .intra_site = true,
                               .inter_site = false,
                               .persistent = true};
}

fs::path FileConnector::path_for(const core::Key& key) const {
  // Object ids are UUIDs generated by put; reject anything path-like so a
  // forged key cannot escape the store directory.
  if (key.object_id.find('/') != std::string::npos ||
      key.object_id.find("..") != std::string::npos) {
    throw ConnectorError("FileConnector: invalid object id '" +
                         key.object_id + "'");
  }
  return store_dir_ / key.object_id;
}

core::Key FileConnector::reserve_key() {
  return core::Key{.object_id = Uuid::random().str(), .meta = {}};
}

core::Key FileConnector::put(BytesView data) {
  core::Key key = reserve_key();
  put_at(key, data);
  return key;
}

bool FileConnector::put_at(const core::Key& key, BytesView data) {
  const fs::path path = path_for(key);
  // Write-then-rename gives readers an all-or-nothing view of the object.
  const fs::path tmp = path.string() + ".tmp";
  write_file(tmp, data);
  fs::rename(tmp, path);
  charge_disk_write(data.size());
  return true;
}

std::optional<Bytes> FileConnector::get(const core::Key& key) {
  const fs::path path = path_for(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  charge_disk_read(data.size());
  return data;
}

bool FileConnector::exists(const core::Key& key) {
  return fs::exists(path_for(key));
}

void FileConnector::evict(const core::Key& key) {
  std::error_code ec;
  fs::remove(path_for(key), ec);  // missing file: no-op by contract
}

namespace {
const core::ConnectorRegistration kRegister(
    "file", [](const core::ConnectorConfig& cfg) {
      return std::static_pointer_cast<core::Connector>(
          std::make_shared<FileConnector>(cfg.param("store_dir")));
    });
}  // namespace

}  // namespace ps::connectors
