#include "relay/relay.hpp"

#include "common/error.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "proc/process.hpp"
#include "sim/vtime.hpp"

namespace ps::relay {

std::shared_ptr<RelayServer> RelayServer::start(proc::World& world,
                                                const std::string& host,
                                                const std::string& name) {
  auto server = std::make_shared<RelayServer>(world, host);
  world.services().bind<RelayServer>("relay://" + host + "/" + name, server);
  return server;
}

RelayServer::RelayServer(proc::World& world, std::string host)
    : world_(world), host_(std::move(host)) {
  world_.fabric().host(host_);  // validate
}

Uuid RelayServer::register_endpoint(const Uuid& preferred,
                                    const std::string& endpoint_host,
                                    Handler handler) {
  world_.fabric().host(endpoint_host);  // validate
  const Uuid id = preferred.is_nil() ? Uuid::random() : preferred;
  std::lock_guard lock(mu_);
  endpoints_[id] = Registration{endpoint_host, std::move(handler)};
  return id;
}

void RelayServer::unregister_endpoint(const Uuid& id) {
  std::lock_guard lock(mu_);
  endpoints_.erase(id);
}

void RelayServer::forward(RelayMessage message) {
  Registration sender;
  Registration target;
  {
    std::lock_guard lock(mu_);
    const auto from_it = endpoints_.find(message.from);
    const auto to_it = endpoints_.find(message.to);
    if (from_it == endpoints_.end()) {
      throw ProtocolError("relay: sender " + message.from.str() +
                          " not registered");
    }
    if (to_it == endpoints_.end()) {
      throw ProtocolError("relay: target " + message.to.str() +
                          " not registered");
    }
    sender = from_it->second;
    target = to_it->second;
    ++forwarded_;
  }
  if (obs::enabled()) {
    static const obs::SiteCounter forwarded("relay.forwarded");
    forwarded.get().inc();
  }
  // The relay is its own actor: record the forward under the relay host's
  // locality, not the calling endpoint's process.
  obs::SpanScope span("relay.forward", message.kind, "wire-transfer");
  std::string site;
  try {
    site = world_.fabric().host(host_).site;
  } catch (...) {
    site = "?";
  }
  span.set_locality({"relay", host_, site});
  // Two signaling legs: sender -> relay, relay -> target. Messages are
  // O(KB) session descriptions.
  const std::size_t bytes = message.payload.size() + 128;
  sim::vadvance(world_.fabric().transfer_time(sender.host, host_, bytes));
  sim::vadvance(world_.fabric().transfer_time(host_, target.host, bytes));
  message.stamp = sim::vnow();
  message.trace = obs::current_context();
  target.handler(message);
}

const std::string& RelayServer::endpoint_host(const Uuid& id) const {
  std::lock_guard lock(mu_);
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) {
    throw ProtocolError("relay: endpoint " + id.str() + " not registered");
  }
  return it->second.host;
}

bool RelayServer::is_registered(const Uuid& id) const {
  std::lock_guard lock(mu_);
  return endpoints_.contains(id);
}

std::size_t RelayServer::endpoint_count() const {
  std::lock_guard lock(mu_);
  return endpoints_.size();
}

std::uint64_t RelayServer::forwarded_count() const {
  std::lock_guard lock(mu_);
  return forwarded_;
}

}  // namespace ps::relay
