#include "endpoint/endpoint.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/file.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "sim/vtime.hpp"

namespace ps::endpoint {

namespace fs = std::filesystem;

namespace {

/// Request-path series; under per-process scoping they land in the site
/// handling the request.
struct Series {
  obs::SiteCounter requests{"endpoint.requests"};
  obs::SiteCounter forwards{"endpoint.forwards"};
  obs::SiteCounter handshakes{"endpoint.handshakes"};
  obs::SiteHistogram handle_vtime{"endpoint.handle.vtime"};
  obs::SiteHistogram handle_wall{"endpoint.handle.wall"};
  obs::SiteHistogram forward_vtime{"endpoint.forward.vtime"};
};

const Series& series() {
  static const Series instance;
  return instance;
}

}  // namespace

std::string endpoint_address(const std::string& host,
                             const std::string& name) {
  return "psep://" + host + "/" + name;
}

std::string endpoint_uuid_address(const Uuid& uuid) {
  return "psep-uuid://" + uuid.str();
}

std::shared_ptr<Endpoint> Endpoint::start(proc::World& world,
                                          const std::string& host,
                                          const std::string& name,
                                          const std::string& relay_address,
                                          EndpointOptions options,
                                          const Uuid& preferred) {
  auto relay = world.services().resolve<relay::RelayServer>(relay_address);
  auto ep = std::make_shared<Endpoint>(world, host, name, std::move(relay),
                                       std::move(options));
  // Register the WebSocket listener with the relay; the relay assigns the
  // UUID when no preferred id is provided.
  std::weak_ptr<Endpoint> weak = ep;
  ep->uuid_ = ep->relay_->register_endpoint(
      preferred, host, [weak](const relay::RelayMessage& message) {
        if (auto self = weak.lock()) self->on_relay_message(message);
      });
  world.services().bind<Endpoint>(endpoint_address(host, name), ep);
  world.services().bind<Endpoint>(endpoint_uuid_address(ep->uuid_), ep);
  return ep;
}

Endpoint::Endpoint(proc::World& world, std::string host, std::string name,
                   std::shared_ptr<relay::RelayServer> relay,
                   EndpointOptions options)
    : world_(world),
      host_(std::move(host)),
      name_(std::move(name)),
      relay_(std::move(relay)),
      options_(std::move(options)) {
  world_.fabric().host(host_);  // validate
  if (options_.max_memory_bytes != SIZE_MAX && options_.spill_dir.empty()) {
    throw ProtocolError("Endpoint: finite memory requires a spill_dir");
  }
  if (!options_.spill_dir.empty()) {
    fs::create_directories(options_.spill_dir);
  }
}

Endpoint::~Endpoint() = default;

double Endpoint::service_time(std::size_t bytes) const {
  return options_.base_service_s +
         static_cast<double>(bytes) / options_.mem_Bps;
}

obs::SpanLocality Endpoint::span_locality() const {
  std::string site;
  try {
    site = world_.fabric().host(host_).site;
  } catch (...) {
    site = "?";
  }
  return obs::SpanLocality{"endpoint:" + name_, host_, site};
}

void Endpoint::on_relay_message(const relay::RelayMessage& message) {
  // Continue the sender's trace through the relay hop.
  obs::ContextScope adopt(message.trace);
  obs::SpanScope span("endpoint.signal", message.kind, "wire-transfer");
  span.set_locality(span_locality());
  sim::vmerge(message.stamp);
  std::unique_lock lock(mu_);
  PeerConnection& peer = peers_[message.from];
  if (message.kind == "offer") {
    peer.phase = PeerPhase::kOfferReceived;
    lock.unlock();
    // Reply with our session description (Figure 4 steps 3-4).
    relay_->forward(relay::RelayMessage{
        .from = uuid_, .to = message.from, .kind = "answer",
        .payload = "sdp-answer:" + uuid_.str(), .stamp = 0.0});
  } else if (message.kind == "answer") {
    peer.phase = PeerPhase::kOfferReceived;  // initiator side: SDP done
  } else if (message.kind == "ice") {
    peer.ice_received = true;
    const bool must_reply = peer.phase == PeerPhase::kOfferReceived &&
                            message.payload.rfind("ice-initiator", 0) == 0;
    if (must_reply) {
      // Responder: exchange our candidates, then consider the pair
      // connected (the initiator completes the punch).
      peer.phase = PeerPhase::kConnected;
      ++handshakes_;
      if (obs::enabled()) series().handshakes.get().inc();
      lock.unlock();
      relay_->forward(relay::RelayMessage{
          .from = uuid_, .to = message.from, .kind = "ice",
          .payload = "ice-responder:" + uuid_.str(), .stamp = 0.0});
    }
  } else {
    throw ProtocolError("Endpoint: unexpected relay message kind '" +
                        message.kind + "'");
  }
}

void Endpoint::connect_peer(const Uuid& peer_id) {
  {
    std::lock_guard lock(mu_);
    if (stopped_) throw ProtocolError("Endpoint " + name_ + " is stopped");
    const auto it = peers_.find(peer_id);
    if (it != peers_.end() && it->second.phase == PeerPhase::kConnected) {
      return;
    }
  }
  // Figure 4: (1-2) forward our SDP offer via the relay; the peer answers
  // (3-4); both sides then exchange ICE candidates via the relay, and (5)
  // the initiator completes UDP hole punching with one direct round trip.
  relay_->forward(relay::RelayMessage{.from = uuid_, .to = peer_id,
                                      .kind = "offer",
                                      .payload = "sdp-offer:" + uuid_.str(),
                                      .stamp = 0.0});
  relay_->forward(relay::RelayMessage{
      .from = uuid_, .to = peer_id, .kind = "ice",
      .payload = "ice-initiator:" + uuid_.str(), .stamp = 0.0});
  const std::string peer_host = relay_->endpoint_host(peer_id);
  sim::vadvance(world_.fabric().route(host_, peer_host).rtt());  // punch
  std::lock_guard lock(mu_);
  PeerConnection& peer = peers_[peer_id];
  if (peer.phase != PeerPhase::kConnected) {
    peer.phase = PeerPhase::kConnected;
    ++handshakes_;
    if (obs::enabled()) series().handshakes.get().inc();
  }
}

EndpointResponse Endpoint::handle(const EndpointRequest& request) {
  {
    std::lock_guard lock(mu_);
    if (stopped_) throw ProtocolError("Endpoint " + name_ + " is stopped");
    ++requests_;
  }
  const bool local =
      request.endpoint_id == uuid_ || request.endpoint_id.is_nil();
  // Continue the caller's trace carried in the request header.
  obs::ContextScope adopt(request.trace);
  obs::SpanScope span(local ? "endpoint.handle" : "endpoint.forward",
                      request.op, "wire-transfer");
  span.set_locality(span_locality());
  if (obs::enabled()) series().requests.get().inc();
  obs::Timer timer(&series().handle_vtime.get(), &series().handle_wall.get());
  if (local) {
    // Single-threaded event loop: FIFO over all client requests, with the
    // service time covering both the request and the response payloads
    // (the loop copies the object out on gets).
    EndpointResponse response = local_op(request);
    const std::size_t payload =
        request.data.size() + (response.data ? response.data->size() : 0);
    const double done = queue_.schedule(sim::vnow(), service_time(payload));
    sim::vset(done);
    return response;
  }

  if (obs::enabled()) series().forwards.get().inc();
  obs::Timer forward_timer(&series().forward_vtime.get());

  // Dispatching a forwarded request costs the loop the request handling.
  const double done = queue_.schedule(
      sim::vnow(), service_time(request.data.size()));
  sim::vset(done);

  // Forward to the owning endpoint over a peer connection.
  connect_peer(request.endpoint_id);
  auto target = world_.services().try_resolve<Endpoint>(
      endpoint_uuid_address(request.endpoint_id));
  if (!target) {
    throw ProtocolError("Endpoint: peer " + request.endpoint_id.str() +
                        " is gone");
  }
  sim::vadvance(data_channel_time(world_.fabric(), host_, target->host_,
                                  request.data.size() + 256,
                                  options_.data_channel));
  EndpointResponse response;
  if (obs::TraceRecorder::global().enabled()) {
    // Re-stamp the header so the peer's span parents to this forward span.
    EndpointRequest relayed = request;
    relayed.trace = obs::current_context();
    response = target->handle_from_peer(relayed);
  } else {
    response = target->handle_from_peer(request);
  }
  const std::size_t response_bytes =
      (response.data ? response.data->size() : 0) + 64;
  sim::vadvance(data_channel_time(world_.fabric(), target->host_, host_,
                                  response_bytes, options_.data_channel));
  return response;
}

EndpointResponse Endpoint::handle_from_peer(const EndpointRequest& request) {
  {
    std::lock_guard lock(mu_);
    if (stopped_) throw ProtocolError("Endpoint " + name_ + " is stopped");
    ++requests_;
  }
  obs::ContextScope adopt(request.trace);
  obs::SpanScope span("endpoint.handle", request.op, "wire-transfer");
  span.set_locality(span_locality());
  EndpointResponse response = local_op(request);
  const std::size_t payload =
      request.data.size() + (response.data ? response.data->size() : 0);
  const double done = queue_.schedule(sim::vnow(), service_time(payload));
  sim::vset(done);
  return response;
}

EndpointResponse Endpoint::local_op(const EndpointRequest& request) {
  if (request.op == "set") {
    store_object(request.object_id, request.data);
    return EndpointResponse{.ok = true, .data = std::nullopt};
  }
  if (request.op == "get") {
    auto data = load_object(request.object_id);
    return EndpointResponse{.ok = data.has_value(), .data = std::move(data)};
  }
  if (request.op == "exists") {
    return EndpointResponse{.ok = object_exists(request.object_id),
                            .data = std::nullopt};
  }
  if (request.op == "evict") {
    remove_object(request.object_id);
    return EndpointResponse{.ok = true, .data = std::nullopt};
  }
  throw ProtocolError("Endpoint: unknown op '" + request.op + "'");
}

fs::path Endpoint::spill_path(const std::string& object_id) const {
  return options_.spill_dir / object_id;
}

void Endpoint::store_object(const std::string& object_id, Bytes data) {
  std::lock_guard lock(mu_);
  // Replace any previous copy.
  const auto mem_it = memory_objects_.find(object_id);
  if (mem_it != memory_objects_.end()) {
    memory_bytes_ -= mem_it->second.size();
    memory_objects_.erase(mem_it);
  }
  spilled_objects_.erase(object_id);

  if (memory_bytes_ + data.size() <= options_.max_memory_bytes) {
    memory_bytes_ += data.size();
    memory_objects_.emplace(object_id, std::move(data));
    return;
  }
  // Spill to disk.
  write_file(spill_path(object_id), data);
  spilled_objects_[object_id] = data.size();
}

std::optional<Bytes> Endpoint::load_object(const std::string& object_id) {
  std::lock_guard lock(mu_);
  const auto it = memory_objects_.find(object_id);
  if (it != memory_objects_.end()) return it->second;
  if (spilled_objects_.contains(object_id)) {
    std::ifstream in(spill_path(object_id), std::ios::binary);
    if (!in) return std::nullopt;
    return Bytes((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  return std::nullopt;
}

bool Endpoint::object_exists(const std::string& object_id) const {
  std::lock_guard lock(mu_);
  return memory_objects_.contains(object_id) ||
         spilled_objects_.contains(object_id);
}

void Endpoint::remove_object(const std::string& object_id) {
  std::lock_guard lock(mu_);
  const auto it = memory_objects_.find(object_id);
  if (it != memory_objects_.end()) {
    memory_bytes_ -= it->second.size();
    memory_objects_.erase(it);
    return;
  }
  if (spilled_objects_.erase(object_id) > 0) {
    std::error_code ec;
    fs::remove(spill_path(object_id), ec);
  }
}

bool Endpoint::has_peer(const Uuid& peer) const {
  std::lock_guard lock(mu_);
  const auto it = peers_.find(peer);
  return it != peers_.end() && it->second.phase == PeerPhase::kConnected;
}

void Endpoint::drop_peer(const Uuid& peer) {
  std::lock_guard lock(mu_);
  peers_.erase(peer);
}

void Endpoint::stop() {
  {
    std::lock_guard lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    peers_.clear();
  }
  relay_->unregister_endpoint(uuid_);
  world_.services().unbind(endpoint_address(host_, name_));
  world_.services().unbind(endpoint_uuid_address(uuid_));
}

bool Endpoint::stopped() const {
  std::lock_guard lock(mu_);
  return stopped_;
}

std::size_t Endpoint::object_count() const {
  std::lock_guard lock(mu_);
  return memory_objects_.size() + spilled_objects_.size();
}

std::size_t Endpoint::memory_bytes() const {
  std::lock_guard lock(mu_);
  return memory_bytes_;
}

std::size_t Endpoint::spilled_count() const {
  std::lock_guard lock(mu_);
  return spilled_objects_.size();
}

std::uint64_t Endpoint::handshakes_completed() const {
  std::lock_guard lock(mu_);
  return handshakes_;
}

std::uint64_t Endpoint::requests_served() const {
  std::lock_guard lock(mu_);
  return requests_;
}

}  // namespace ps::endpoint
