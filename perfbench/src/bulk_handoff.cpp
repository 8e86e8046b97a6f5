// bulk-handoff: one large object handed from a producer to a consumer at a
// time.
//
// A producer process on theta proxies a payload (log-uniform 64 KB–16 MB,
// evict-on-resolve) into a kv server next to it and serializes the proxy. A
// consumer process on polaris deserializes the proxy and resolves it. The op
// is proxy creation through first resolve. Copying and memory bandwidth
// dominate while per-op bookkeeping is diluted; every object is read exactly
// once, so the cache is bypassed, and the kv server must end empty.
#include <memory>
#include <optional>
#include <string>

#include "connectors/redis.hpp"
#include "core/store.hpp"
#include "harness.hpp"
#include "kv/server.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"
#include "testbed/testbed.hpp"
#include "timed_connector.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using namespace ps;

constexpr std::size_t kOps = 1000;
constexpr std::size_t kWarmupOps = 4;
constexpr double kMinSize = 64e3;
constexpr double kMaxSize = 16e6;
constexpr const char* kStoreName = "bulk";

}  // namespace

Params bulk_handoff_params() {
  return {{"producer_host", "theta-compute-0"},
          {"consumer_host", "polaris-compute-0"},
          {"kv_host", "theta-login"},
          {"payload_bytes", "log-uniform 64000-16000000, stratified"},
          {"evict_on_resolve", "true"},
          {"in_flight", "1"},
          {"ops_per_rep", std::to_string(kOps)},
          {"warmup_ops", std::to_string(kWarmupOps) + " x 64000 B"}};
}

RepResult run_bulk_handoff(const RepOptions& options) {
  const double rep_start = wall_now_s();
  RepResult result;
  std::optional<Tracer> tracer;
  if (options.traced) tracer.emplace();

  testbed::Testbed tb = testbed::build();
  sim::vset(0.0);  // vtime is per thread: start every rep at the same instant
  proc::World& world = *tb.world;
  auto server = kv::KvServer::start(world, tb.theta_login, "bulk");
  const std::string address = kv::kv_address(tb.theta_login, "bulk");
  proc::Process& producer = world.spawn("producer", tb.theta_compute0);
  proc::Process& consumer = world.spawn("consumer", tb.polaris_compute0);

  std::shared_ptr<core::Store> store;
  std::size_t wrapper_bytes = 0;
  {
    proc::ProcessScope scope(producer);
    std::shared_ptr<core::Connector> connector =
        std::make_shared<connectors::RedisConnector>(address);
    if (options.traced) {
      wrapper_bytes = TimedConnector::descriptor_overhead(connector->config());
      connector = std::make_shared<TimedConnector>(std::move(connector));
    }
    store = std::make_shared<core::Store>(kStoreName, std::move(connector));
    core::register_store(store);
  }

  Rng rng(mix(options.seed, 0xb01c));
  PhaseClock phase;
  std::uint64_t op_digest = mix(options.seed, 0xb01c);
  double vclock = 0.0;
  double wire_total = 0.0;
  std::size_t resident_peak = 0;

  // One handoff starting at `vclock`; returns false when it threw or the
  // consumer saw other bytes than were produced.
  const auto handoff = [&](std::size_t size, std::uint64_t payload_seed,
                           std::optional<std::uint32_t> op) {
    std::optional<PhaseClock::BenchSide> prep;
    if (op) prep.emplace(phase);
    const Bytes payload = make_pattern(size, payload_seed);
    prep.reset();

    const double vstart = vclock;
    std::optional<core::Proxy<Bytes>> received;
    bool threw = false;
    const double w0 = wall_now_s();
    {
      OpScope root(op && tracer ? &*tracer : nullptr, op.value_or(kNoOp));
      try {
        Bytes wire;
        double shipped = 0.0;
        {
          proc::ProcessScope scope(producer);
          sim::vset(vclock);
          Span span("core.proxy");
          const core::Proxy<Bytes> proxy =
              store->proxy(payload, /*evict=*/true);
          wire = serde::to_bytes(proxy);
          // The serialized proxy travels to the consumer as one message. A
          // TimedConnector's extra config entry is not charged, so traced
          // and untraced reps cost the same vtime.
          shipped = sim::vnow() + world.fabric().transfer_time(
                                      producer.host(), consumer.host(),
                                      wire.size() - wrapper_bytes);
        }
        if (op) wire_total += static_cast<double>(wire.size() - wrapper_bytes);
        proc::ProcessScope scope(consumer);
        sim::vset(shipped);
        Span span("core.resolve");
        received.emplace(serde::from_bytes<core::Proxy<Bytes>>(wire));
        received->resolve();
        vclock = sim::vnow();
      } catch (const std::exception&) {
        threw = true;
      }
    }
    const double w1 = wall_now_s();

    std::optional<PhaseClock::BenchSide> check;
    if (op) check.emplace(phase);
    bool ok = !threw && received.has_value();
    if (ok) {
      proc::ProcessScope scope(consumer);
      const Bytes& value = received->resolve();
      ok = value.size() == size && matches_pattern(value, payload_seed);
    }
    received.reset();
    if (op) {
      result.op_wall_us.push_back(1e6 * (w1 - w0));
      result.op_vtime_s.push_back(vclock - vstart);
      if (tracer) resident_peak = std::max(resident_peak, server->size());
    }
    return ok;
  };

  for (std::size_t i = 0; i < kWarmupOps; ++i) {
    if (!handoff(static_cast<std::size_t>(kMinSize), mix(options.seed, ~i),
                 std::nullopt)) {
      result.errors.push_back("warm-up handoff failed");
    }
  }
  result.setup_s = wall_now_s() - rep_start;
  if (options.setup_only) return result;

  const double vstart = vclock;
  const double busy0 = server->queue().busy_time();
  const std::size_t completed0 = server->queue().completed();
  const core::Store::Metrics put0 = store->metrics();
  core::Store::Metrics got0{};
  {
    proc::ProcessScope scope(consumer);
    if (auto remote = core::get_store(kStoreName)) got0 = remote->metrics();
  }
  const std::vector<std::size_t> sizes =
      stratified_log_uniform(rng, kOps, kMinSize, kMaxSize);
  phase.begin();
  for (std::size_t k = 0; k < kOps; ++k) {
    const std::size_t size = sizes[k];
    op_digest = mix(op_digest, size);
    ++result.attempted;
    if (!handoff(size, mix(options.seed, k), static_cast<std::uint32_t>(k))) {
      ++result.failed;
    }
  }
  phase.end();
  result.phase_wall_s = phase.wall_s();
  result.phase_cpu_s = phase.cpu_s();
  result.vtime_makespan_s = vclock - vstart;
  result.vtime_ops_per_s = kOps / result.vtime_makespan_s;

  const double busy = server->queue().busy_time() - busy0;
  const std::size_t completed = server->queue().completed() - completed0;
  const std::size_t resident = server->size();
  if (resident != 0) {
    result.errors.push_back(
        "kv holds " + std::to_string(resident) +
        " keys after evict-on-resolve handoffs, expected 0");
  }

  result.op_digest = op_digest;
  std::uint64_t vdigest = mix(options.seed, resident);
  for (const double v : result.op_vtime_s) vdigest = mix_double(vdigest, v);
  vdigest = mix_double(mix(vdigest, completed), busy);
  result.vtime_digest = vdigest;

  if (tracer) {
    const core::Store::Metrics put1 = store->metrics();
    core::Store::Metrics got1{};
    {
      proc::ProcessScope scope(consumer);
      if (auto remote = core::get_store(kStoreName)) got1 = remote->metrics();
    }
    result.layers = layer_metrics(tracer->summarize());
    const double gets = static_cast<double>(got1.gets - got0.gets);
    result.layers["core.cache.hit_ratio"] =
        gets > 0 ? static_cast<double>(got1.cache_hits - got0.cache_hits) / gets
                 : 0.0;
    result.layers["core.cache.evictions"] =
        static_cast<double>(got1.cache_evictions - got0.cache_evictions);
    result.layers["core.bytes_put_mb"] =
        static_cast<double>(put1.bytes_put - put0.bytes_put) / 1e6;
    result.layers["core.bytes_got_mb"] =
        static_cast<double>(got1.bytes_got - got0.bytes_got) / 1e6;
    result.layers["core.proxy_wire_bytes"] = wire_total / kOps;
    result.layers["kv.service.busy_s"] = busy;
    result.layers["kv.service.completed"] = static_cast<double>(completed);
    result.layers["kv.utilization"] =
        result.vtime_makespan_s > 0 ? busy / result.vtime_makespan_s : 0.0;
    result.layers["kv.resident_keys_end"] = static_cast<double>(resident);
    result.layers["kv.resident_keys_peak"] = static_cast<double>(resident_peak);
    result.layers["workflow.proxied_share"] = 0.0;
  }
  return result;
}

}  // namespace perfbench
