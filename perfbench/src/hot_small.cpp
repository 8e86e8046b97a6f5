// hot-small: many clients hammering a hot set of small objects.
//
// 256 simulated clients spread round-robin over five sites (a third of them
// on theta, the server's site) share one kv server on theta. They run
// closed-loop in the main thread, each on its own virtual clock with a
// short jittered think time between ops, stepped in order of their
// requests' virtual arrival at the server.
// Keys are Zipf-skewed (s = 1) over a hot set of 4096 objects of 1–16 KB;
// each site's Store caches 1/16 of the hot set. The mix is 80% Store::get,
// 10% resolve_batch of 16 keys and 10% replace (put a new version, then
// evict the old one). Fixed per-op cost dominates, copies are negligible,
// and the cache hit ratio sits mid-range, so a cache change shows either
// way.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "connectors/redis.hpp"
#include "core/store.hpp"
#include "harness.hpp"
#include "kv/server.hpp"
#include "sim/vtime.hpp"
#include "testbed/testbed.hpp"
#include "timed_connector.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using namespace ps;

constexpr std::size_t kClients = 256;
constexpr std::size_t kHotSet = 4096;
constexpr std::size_t kCacheSize = kHotSet / 16;
constexpr std::size_t kBatch = 16;
constexpr double kZipfExponent = 1.0;
constexpr double kMinSize = 1e3;
constexpr double kMaxSize = 16e3;
constexpr double kGetShare = 0.8;
constexpr double kBatchShare = 0.1;
constexpr int kWarmupOpsPerClient = 2;
constexpr int kMeasuredOpsPerClient = 128;
constexpr double kThinkS = 4e-3;
constexpr double kThinkJitterS = 4e-3;
constexpr double kStaggerS = 20e-6;
/// Size of a small kv request, for ordering clients by server arrival.
constexpr std::size_t kRequestBytes = 64;

enum class Kind { kGet, kBatch, kReplace };

/// Zipf over ranks [0, n): P(k) proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double exponent) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Slot {
  core::Key key;
  std::uint64_t version = 0;
  std::size_t size = 0;
};

struct Client {
  proc::Process* process = nullptr;
  std::size_t site = 0;
  double vnow = 0.0;
  /// One-way virtual time for a request to reach the kv server.
  double to_server_s = 0.0;
  Rng rng;
  /// Virtual start of the client's measured phase and end of its last op.
  double phase_start = 0.0;
  double last_end = 0.0;
};

std::uint64_t slot_seed(std::uint64_t seed, std::size_t slot,
                        std::uint64_t version) {
  return mix(mix(seed, slot), version);
}

/// Size of the object at popularity rank `rank`: log-uniform over
/// [kMinSize, kMaxSize] along a golden-ratio sequence, so the few ranks that
/// take most of the traffic get the same sizes under every seed and the
/// seed varies only the op sequence.
std::size_t slot_size(std::size_t rank) {
  const double u =
      std::fmod(0.6180339887498949 * static_cast<double>(rank + 1), 1.0);
  return static_cast<std::size_t>(
      std::llround(kMinSize * std::pow(kMaxSize / kMinSize, u)));
}

std::shared_ptr<core::Connector> make_connector(const std::string& address,
                                                bool traced) {
  auto redis = std::make_shared<connectors::RedisConnector>(address);
  if (!traced) return redis;
  return std::make_shared<TimedConnector>(std::move(redis));
}

}  // namespace

Params hot_small_params() {
  return {{"clients", std::to_string(kClients)},
          {"client_hosts", "round-robin theta-compute-0, polaris-compute-0, "
                           "theta-compute-1, perlmutter-compute-0, "
                           "midway2-login, chameleon-0"},
          {"kv_host", "theta-login"},
          {"hot_set", std::to_string(kHotSet)},
          {"object_bytes", "1000-16000, log-uniform by rank (golden ratio)"},
          {"zipf_s", "1.0"},
          {"store_cache_entries", std::to_string(kCacheSize) + " per site"},
          {"mix", "80% get, 10% resolve_batch x16, 10% replace"},
          {"loop", "closed, think 4 ms + U(0, 4 ms) virtual, "
                   "earliest request arrival at the server steps next"},
          {"ops_per_rep", std::to_string(kClients * kMeasuredOpsPerClient)},
          {"warmup_ops", std::to_string(kClients * kWarmupOpsPerClient)}};
}

RepResult run_hot_small(const RepOptions& options) {
  const double rep_start = wall_now_s();
  RepResult result;
  std::optional<Tracer> tracer;
  if (options.traced) tracer.emplace();

  testbed::Testbed tb = testbed::build();
  sim::vset(0.0);  // vtime is per thread: start every rep at the same instant
  proc::World& world = *tb.world;
  // Client hosts, assigned round-robin over five sites; theta, the server's
  // own site, takes two of the six slots.
  const std::vector<std::string> hosts = {
      tb.theta_compute0, tb.polaris_compute0, tb.theta_compute1,
      tb.perlmutter_compute, tb.midway_login, tb.chameleon0};
  const std::vector<std::size_t> host_site = {0, 1, 0, 2, 3, 4};
  constexpr std::size_t kSites = 5;
  auto server = kv::KvServer::start(world, tb.theta_login, "hot");
  const std::string address = kv::kv_address(tb.theta_login, "hot");

  std::vector<Client> clients(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients[i].process =
        &world.spawn("client-" + std::to_string(i), hosts[i % hosts.size()]);
    clients[i].site = host_site[i % hosts.size()];
    clients[i].vnow = static_cast<double>(i) * kStaggerS;
    clients[i].to_server_s = world.fabric().transfer_time(
        hosts[i % hosts.size()], tb.theta_login, kRequestBytes);
    clients[i].rng = Rng(mix(options.seed, 0x1000 + i));
  }
  // One Store (and deserialized-object cache) per site, shared by the
  // site's clients; created in a process of that site.
  std::vector<std::shared_ptr<core::Store>> stores(kSites);
  for (const Client& client : clients) {
    if (stores[client.site]) continue;
    proc::ProcessScope scope(*client.process);
    stores[client.site] = std::make_shared<core::Store>(
        "hot-" + std::to_string(client.site),
        make_connector(address, options.traced),
        core::Store::Options{kCacheSize});
  }

  // Preload the hot set from a loader next to the server.
  std::vector<Slot> slots(kHotSet);
  {
    proc::ProcessScope scope(world.spawn("loader", tb.theta_login));
    core::Store loader("hot-loader", make_connector(address, false),
                       core::Store::Options{0});
    for (std::size_t i = 0; i < kHotSet; ++i) {
      slots[i].size = slot_size(i);
      slots[i].key = loader.put(
          make_pattern(slots[i].size, slot_seed(options.seed, i, 0)));
    }
  }
  const Zipf zipf(kHotSet, kZipfExponent);

  PhaseClock phase;
  std::uint64_t op_digest = mix(options.seed, 0x401);
  std::uint64_t ops_done = 0;
  double phase_vstart = 0.0;
  double phase_vend = 0.0;
  double busy0 = 0.0;
  std::size_t completed0 = 0;
  core::Store::Metrics store0{};
  std::size_t resident_peak = 0;

  const auto store_totals = [&] {
    core::Store::Metrics total{};
    for (const auto& store : stores) {
      const core::Store::Metrics m = store->metrics();
      total.gets += m.gets;
      total.cache_hits += m.cache_hits;
      total.cache_evictions += m.cache_evictions;
      total.bytes_put += m.bytes_put;
      total.bytes_got += m.bytes_got;
    }
    return total;
  };

  // One op of client `c`, starting at its virtual clock.
  const auto run_op = [&](std::size_t c, bool measured) {
    Client& client = clients[c];
    core::Store& store = *stores[client.site];
    // Draw the op and its payload (benchmark-side, outside the op window).
    std::optional<PhaseClock::BenchSide> prep;
    if (measured) prep.emplace(phase);
    const double u = client.rng.uniform();
    const Kind kind = u < kGetShare                 ? Kind::kGet
                      : u < kGetShare + kBatchShare ? Kind::kBatch
                                                    : Kind::kReplace;
    std::vector<std::size_t> picks(kind == Kind::kBatch ? kBatch : 1);
    for (std::size_t& pick : picks) {
      pick = zipf.sample(client.rng);
    }
    op_digest = mix(mix(op_digest, c), static_cast<std::uint64_t>(kind));
    for (const std::size_t pick : picks) op_digest = mix(op_digest, pick);
    Bytes replacement;
    std::vector<core::Key> keys;
    if (kind == Kind::kReplace) {
      const Slot& slot = slots[picks[0]];
      replacement = make_pattern(
          slot.size, slot_seed(options.seed, picks[0], slot.version + 1));
    }
    for (const std::size_t pick : picks) keys.push_back(slots[pick].key);
    proc::ProcessScope scope(*client.process);
    sim::vset(client.vnow);
    prep.reset();
    const double vstart = client.vnow;
    std::optional<Bytes> value;
    std::vector<std::optional<Bytes>> values;
    core::Key new_key;
    bool threw = false;
    const double w0 = wall_now_s();
    {
      OpScope root(measured && tracer ? &*tracer : nullptr,
                   static_cast<std::uint32_t>(ops_done));
      try {
        switch (kind) {
          case Kind::kGet: {
            Span span("core.get");
            value = store.get<Bytes>(keys[0]);
            break;
          }
          case Kind::kBatch: {
            Span span("core.resolve_batch");
            values = store.resolve_batch<Bytes>(keys);
            break;
          }
          case Kind::kReplace: {
            {
              Span span("core.put");
              new_key = store.put(replacement);
            }
            Span span("core.evict");
            store.evict(keys[0]);
            break;
          }
        }
      } catch (const std::exception&) {
        threw = true;
      }
    }
    const double w1 = wall_now_s();
    const double vend = sim::vnow();
    client.vnow = vend + kThinkS + client.rng.uniform(0.0, kThinkJitterS);

    std::optional<PhaseClock::BenchSide> bench;
    if (measured) bench.emplace(phase);
    bool ok = !threw;
    if (ok && kind == Kind::kGet) {
      const Slot& slot = slots[picks[0]];
      ok = value && value->size() == slot.size &&
           matches_pattern(*value,
                           slot_seed(options.seed, picks[0], slot.version));
    } else if (ok && kind == Kind::kBatch) {
      for (std::size_t i = 0; i < picks.size() && ok; ++i) {
        const Slot& slot = slots[picks[i]];
        ok = values[i] && values[i]->size() == slot.size &&
             matches_pattern(*values[i], slot_seed(options.seed, picks[i],
                                                   slot.version));
      }
    } else if (ok && kind == Kind::kReplace) {
      Slot& slot = slots[picks[0]];
      slot.key = new_key;
      ++slot.version;
    }
    if (!measured) {
      if (!ok) result.errors.push_back("warm-up op failed");
      return;
    }
    ++result.attempted;
    if (!ok) ++result.failed;
    result.op_wall_us.push_back(1e6 * (w1 - w0));
    result.op_vtime_s.push_back(vend - vstart);
    phase_vend = std::max(phase_vend, vend);
    client.last_end = vend;
    ++ops_done;
    if (tracer) resident_peak = std::max(resident_peak, server->size());
  };

  // Every client runs `ops_per_client` ops. The main thread always steps the
  // client whose next request reaches the kv server first (ties by index):
  // the server's queue model (sim::Resource) expects requests in arrival
  // order, which truly concurrent clients on sites at different distances
  // produce and issue order alone does not.
  const auto run_phase = [&](int ops_per_client, bool measured) {
    using Next = std::pair<double, std::size_t>;
    std::priority_queue<Next, std::vector<Next>, std::greater<>> ready;
    const auto arrival = [&](std::size_t c) -> Next {
      return {clients[c].vnow + clients[c].to_server_s, c};
    };
    std::vector<int> left(kClients, ops_per_client);
    for (std::size_t c = 0; c < kClients; ++c) ready.push(arrival(c));
    while (!ready.empty()) {
      const std::size_t c = ready.top().second;
      ready.pop();
      run_op(c, measured);
      if (--left[c] > 0) ready.push(arrival(c));
    }
  };

  run_phase(kWarmupOpsPerClient, false);
  result.setup_s = wall_now_s() - rep_start;
  if (options.setup_only) return result;

  phase_vstart = clients[0].vnow;
  for (Client& client : clients) {
    client.phase_start = client.vnow;
    phase_vstart = std::min(phase_vstart, client.vnow);
  }
  busy0 = server->queue().busy_time();
  completed0 = server->queue().completed();
  store0 = store_totals();
  phase.begin();
  run_phase(kMeasuredOpsPerClient, true);
  phase.end();
  result.phase_wall_s = phase.wall_s();
  result.phase_cpu_s = phase.cpu_s();
  result.vtime_makespan_s = phase_vend - phase_vstart;
  for (const Client& client : clients) {
    result.vtime_ops_per_s +=
        kMeasuredOpsPerClient / (client.last_end - client.phase_start);
  }

  const double busy = server->queue().busy_time() - busy0;
  const std::size_t completed = server->queue().completed() - completed0;
  const std::size_t resident = server->size();

  // End state: the server holds exactly the hot set's current versions.
  if (resident != kHotSet) {
    result.errors.push_back("kv holds " + std::to_string(resident) +
                            " keys, expected the hot set of " +
                            std::to_string(kHotSet));
  }
  for (const Slot& slot : slots) {
    if (!server->exists(slot.key.object_id)) {
      result.errors.push_back("hot-set key missing at end of run");
      break;
    }
  }

  result.op_digest = op_digest;
  std::uint64_t vdigest = mix(options.seed, resident);
  for (const double v : result.op_vtime_s) vdigest = mix_double(vdigest, v);
  vdigest = mix_double(mix(vdigest, completed), busy);
  result.vtime_digest = vdigest;

  if (tracer) {
    const core::Store::Metrics store1 = store_totals();
    result.layers = layer_metrics(tracer->summarize());
    const double gets = static_cast<double>(store1.gets - store0.gets);
    result.layers["core.cache.hit_ratio"] =
        gets > 0 ? static_cast<double>(store1.cache_hits - store0.cache_hits) /
                       gets
                 : 0.0;
    result.layers["core.cache.evictions"] =
        static_cast<double>(store1.cache_evictions - store0.cache_evictions);
    result.layers["core.bytes_put_mb"] =
        static_cast<double>(store1.bytes_put - store0.bytes_put) / 1e6;
    result.layers["core.bytes_got_mb"] =
        static_cast<double>(store1.bytes_got - store0.bytes_got) / 1e6;
    result.layers["core.proxy_wire_bytes"] = 0.0;
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
