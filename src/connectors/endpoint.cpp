#include "connectors/endpoint.hpp"

#include "common/uuid.hpp"
#include "connectors/costs.hpp"
#include "obs/context.hpp"
#include "sim/vtime.hpp"

namespace ps::connectors {

namespace {

std::shared_ptr<endpoint::Endpoint> pick_home(
    const std::vector<std::string>& addresses) {
  proc::World& world = current_world();
  const std::string& host = current_host();
  const std::string& site = world.fabric().host(host).site;

  std::shared_ptr<endpoint::Endpoint> same_site;
  for (const std::string& address : addresses) {
    auto ep = world.services().try_resolve<endpoint::Endpoint>(address);
    if (!ep) continue;
    if (ep->host() == host) return ep;
    if (world.fabric().host(ep->host()).site == site && !same_site) {
      same_site = ep;
    }
  }
  if (same_site) return same_site;
  throw ConnectorError(
      "EndpointConnector: no PS-endpoint reachable from host '" + host + "'");
}

}  // namespace

EndpointConnector::EndpointConnector(std::vector<std::string> addresses)
    : addresses_(std::move(addresses)), home_(pick_home(addresses_)) {
  if (addresses_.empty()) {
    throw ConnectorError("EndpointConnector: no endpoint addresses");
  }
}

core::ConnectorConfig EndpointConnector::config() const {
  core::ConnectorConfig cfg{.type = "endpoint", .params = {}};
  cfg.params["count"] = std::to_string(addresses_.size());
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    cfg.params["address_" + std::to_string(i)] = addresses_[i];
  }
  return cfg;
}

core::ConnectorTraits EndpointConnector::traits() const {
  return core::ConnectorTraits{.storage = "hybrid",
                               .intra_site = true,
                               .inter_site = true,
                               .persistent = true};
}

endpoint::EndpointResponse EndpointConnector::round_trip(
    endpoint::EndpointRequest request, std::size_t response_hint) {
  request.trace = obs::current_context();
  // Client -> local endpoint leg.
  charge_transfer(current_host(), home_->host(), request.data.size() + 128);
  endpoint::EndpointResponse response = home_->handle(request);
  // Endpoint -> client leg.
  const std::size_t response_bytes =
      response.data ? response.data->size() : response_hint;
  charge_transfer(home_->host(), current_host(), response_bytes + 64);
  return response;
}

core::Key EndpointConnector::put(BytesView data) {
  core::Key key = reserve_key();
  put_at(key, data);
  return key;
}

core::Key EndpointConnector::reserve_key() {
  // Objects written against this key live on this connector's home
  // endpoint, wherever the eventual writer runs (requests forward).
  core::Key key{.object_id = Uuid::random().str(), .meta = {}};
  key.meta["endpoint_id"] = home_->uuid().str();
  return key;
}

bool EndpointConnector::put_at(const core::Key& key, BytesView data) {
  round_trip(
      endpoint::EndpointRequest{.op = "set",
                                .object_id = key.object_id,
                                .endpoint_id =
                                    Uuid::parse(key.field("endpoint_id")),
                                .data = Bytes(data)},
      0);
  return true;
}

std::optional<Bytes> EndpointConnector::get(const core::Key& key) {
  auto response = round_trip(
      endpoint::EndpointRequest{.op = "get",
                                .object_id = key.object_id,
                                .endpoint_id =
                                    Uuid::parse(key.field("endpoint_id")),
                                .data = {}},
      0);
  return std::move(response.data);
}

std::vector<std::optional<Bytes>> EndpointConnector::get_batch(
    const std::vector<core::Key>& keys) {
  if (keys.empty()) return {};
  // One combined request leg carries every key (~48 bytes of header per
  // sub-request), mirroring the per-request framing round_trip charges.
  charge_transfer(current_host(), home_->host(), keys.size() * 48 + 128);
  std::vector<std::optional<Bytes>> out;
  out.reserve(keys.size());
  std::size_t response_bytes = 0;
  for (const core::Key& key : keys) {
    endpoint::EndpointRequest request{
        .op = "get",
        .object_id = key.object_id,
        .endpoint_id = Uuid::parse(key.field("endpoint_id")),
        .data = {}};
    request.trace = obs::current_context();
    endpoint::EndpointResponse response = home_->handle(request);
    if (response.data) response_bytes += response.data->size();
    out.push_back(std::move(response.data));
  }
  // One combined response leg for all payloads.
  charge_transfer(home_->host(), current_host(), response_bytes + 64);
  return out;
}

bool EndpointConnector::exists(const core::Key& key) {
  return round_trip(
             endpoint::EndpointRequest{
                 .op = "exists",
                 .object_id = key.object_id,
                 .endpoint_id = Uuid::parse(key.field("endpoint_id")),
                 .data = {}},
             0)
      .ok;
}

void EndpointConnector::evict(const core::Key& key) {
  round_trip(endpoint::EndpointRequest{
                 .op = "evict",
                 .object_id = key.object_id,
                 .endpoint_id = Uuid::parse(key.field("endpoint_id")),
                 .data = {}},
             0);
}

namespace {

// Runs `op` (which advances the caller's clock through the endpoint legs)
// with the caller's clock saved/restored, and stamps the returned future at
// the exchange's completion vtime; an error thrown by `op` fails the future
// instead, stamped when it was thrown. Same virtual cost and failure mode as
// parking the sync op on the AsyncExecutor — the worker there is seeded
// with the submitter's clock — but no worker is occupied while the request
// is outstanding.
template <typename T, typename Op>
core::Future<T> inline_async(Op&& op) {
  const double issue = sim::vnow();
  core::Promise<T> promise;
  try {
    promise.set_value(op());
  } catch (...) {
    promise.set_error(std::current_exception());
  }
  sim::vset(issue);
  return promise.future();
}

}  // namespace

core::Future<std::optional<Bytes>> EndpointConnector::get_async(
    const core::Key& key) {
  return inline_async<std::optional<Bytes>>([&] { return get(key); });
}

core::Future<std::vector<std::optional<Bytes>>>
EndpointConnector::get_batch_async(const std::vector<core::Key>& keys) {
  return inline_async<std::vector<std::optional<Bytes>>>(
      [&] { return get_batch(keys); });
}

namespace {
const core::ConnectorRegistration kRegister(
    "endpoint", [](const core::ConnectorConfig& cfg) {
      const std::size_t count = std::stoul(cfg.param("count"));
      std::vector<std::string> addresses;
      addresses.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        addresses.push_back(cfg.param("address_" + std::to_string(i)));
      }
      return std::static_pointer_cast<core::Connector>(
          std::make_shared<EndpointConnector>(std::move(addresses)));
    });
}  // namespace

}  // namespace ps::connectors
