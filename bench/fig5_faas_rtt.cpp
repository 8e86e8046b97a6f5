// Figure 5: average round-trip time of Globus Compute no-op and 1 s sleep
// tasks vs payload size, for two intra-site and two inter-site
// client/endpoint configurations, comparing the cloud-transfer baseline to
// ProxyStore's FileStore / RedisStore / EndpointStore / GlobusStore and to
// IPFS.
//
// Dashed-line behaviour in the paper (the 5 MB Globus Compute payload
// limit) appears here as "limit" cells: the baseline simply cannot carry
// larger payloads, while every ProxyStore channel can.
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <variant>

#include "bench_util.hpp"
#include "connectors/endpoint.hpp"
#include "connectors/file.hpp"
#include "connectors/globus.hpp"
#include "connectors/redis.hpp"
#include "core/store.hpp"
#include "endpoint/endpoint.hpp"
#include "faas/cloud.hpp"
#include "faas/executor.hpp"
#include "faas/registry.hpp"
#include "globus/transfer.hpp"
#include "ipfs/ipfs.hpp"
#include "kv/server.hpp"
#include "relay/relay.hpp"
#include "sim/vtime.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace ps;

struct BenchTaskRequest {
  std::variant<Bytes, core::Proxy<Bytes>> data;
  bool sleep = false;

  auto serde_members() { return std::tie(data, sleep); }
  auto serde_members() const { return std::tie(data, sleep); }
};

struct IpfsTaskRequest {
  ipfs::Cid cid;
  std::string node_address;  // the consumer-side IPFS node
  bool sleep = false;
  std::uint64_t expect_bytes = 0;

  auto serde_members() {
    return std::tie(cid, node_address, sleep, expect_bytes);
  }
  auto serde_members() const {
    return std::tie(cid, node_address, sleep, expect_bytes);
  }
};

void register_tasks() {
  faas::FunctionRegistry::instance().register_function(
      "fig5-task", [](BytesView request_bytes) {
        auto request = serde::from_bytes<BenchTaskRequest>(request_bytes);
        std::size_t size = 0;
        if (auto* raw = std::get_if<Bytes>(&request.data)) {
          if (request.sleep) sim::vadvance(1.0);
          size = raw->size();
        } else {
          auto& proxy = std::get<core::Proxy<Bytes>>(request.data);
          if (request.sleep) {
            // Overlap communication with the sleep (the paper's async
            // resolve pattern: one extra task-side line of code).
            proxy.resolve_async();
            sim::vadvance(1.0);
          }
          size = proxy->size();  // resolves (or awaits the async resolve)
        }
        return serde::to_bytes(size);
      });

  faas::FunctionRegistry::instance().register_function(
      "fig5-ipfs-task", [](BytesView request_bytes) {
        auto request = serde::from_bytes<IpfsTaskRequest>(request_bytes);
        auto node =
            proc::current_process().world().services().resolve<ipfs::IpfsNode>(
                request.node_address);
        // IPFS has no lazy-resolution hook: fetch before any compute.
        const auto data = node->get(request.cid);
        if (!data || data->size() != request.expect_bytes) {
          throw Error("fig5: IPFS content mismatch");
        }
        if (request.sleep) sim::vadvance(1.0);
        return serde::to_bytes(data->size());
      });
}

/// One communication method within a scenario.
struct Method {
  std::string name;
  // Returns the measured RTT for one task, or -1 for "over the limit".
  std::function<double(std::size_t payload_bytes, bool sleep)> run;
};

struct Scenario {
  /// Removes the scenario's scratch directory (file, Globus and IPFS
  /// stores). Declared first, so it runs after every service has stopped.
  struct ScratchDir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("ps_fig5_" + Uuid::random().str());
    ~ScratchDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } scratch;
  std::string name;
  testbed::Testbed tb;
  proc::Process* client = nullptr;
  proc::Process* endpoint_proc = nullptr;
  std::shared_ptr<faas::CloudService> cloud;
  std::unique_ptr<faas::ComputeEndpoint> endpoint;
  std::vector<Method> methods;
  std::uint64_t seed = 1;

  double run_task(const BenchTaskRequest& request) {
    sim::VtimeScope rtt;
    faas::Executor executor(cloud, endpoint->uuid());
    auto future = executor.submit("fig5-task", serde::to_bytes(request));
    future.get();
    return rtt.elapsed();
  }
};

/// Builds a scenario with client on `client_host` and the Globus Compute
/// endpoint (task execution) on `task_host`.
std::unique_ptr<Scenario> make_scenario(const std::string& name,
                                        const std::string& client_host,
                                        const std::string& task_host,
                                        bool intra_site) {
  auto s = std::make_unique<Scenario>();
  s->name = name;
  s->tb = testbed::build();
  s->client = &s->tb.world->spawn("client", client_host);
  s->endpoint_proc = &s->tb.world->spawn("gc-endpoint", task_host);
  s->cloud = faas::CloudService::start(*s->tb.world, s->tb.cloud);
  s->endpoint =
      std::make_unique<faas::ComputeEndpoint>(s->cloud, *s->endpoint_proc);

  Scenario* sp = s.get();

  // Baseline: payload rides the task through the cloud.
  s->methods.push_back(Method{
      "GlobusCompute",
      [sp](std::size_t bytes, bool sleep) -> double {
        BenchTaskRequest request;
        request.data = pattern_bytes(bytes, sp->seed++);
        request.sleep = sleep;
        try {
          proc::ProcessScope scope(*sp->client);
          return sp->run_task(request);
        } catch (const PayloadTooLargeError&) {
          return -1.0;
        }
      }});

  const auto add_store_method = [sp](const std::string& method_name,
                                     std::shared_ptr<core::Store> store) {
    sp->methods.push_back(Method{
        method_name, [sp, store](std::size_t bytes, bool sleep) -> double {
          proc::ProcessScope scope(*sp->client);
          core::register_store(store, /*overwrite=*/true);
          BenchTaskRequest request;
          request.sleep = sleep;
          sim::VtimeScope rtt;
          // Proxying the input is part of the client-observed cost.
          request.data = store->proxy(pattern_bytes(bytes, sp->seed++),
                                      /*evict=*/true);
          faas::Executor executor(sp->cloud, sp->endpoint->uuid());
          auto future =
              executor.submit("fig5-task", serde::to_bytes(request));
          future.get();
          return rtt.elapsed();
        }});
  };

  const std::filesystem::path& base = s->scratch.path;

  if (intra_site) {
    proc::ProcessScope scope(*s->client);
    add_store_method("FileStore",
                     std::make_shared<core::Store>(
                         "fig5-file", std::make_shared<connectors::FileConnector>(
                                          base / "file")));
    kv::KvServer::start(*s->tb.world, client_host, "fig5");
    add_store_method("RedisStore",
                     std::make_shared<core::Store>(
                         "fig5-redis",
                         std::make_shared<connectors::RedisConnector>(
                             kv::kv_address(client_host, "fig5"))));
  }

  // EndpointStore: PS-endpoints at both ends, relay in the cloud region.
  relay::RelayServer::start(*s->tb.world, s->tb.relay_host, "fig5-relay");
  endpoint::Endpoint::start(*s->tb.world, client_host, "fig5-ep-client",
                            "relay://" + s->tb.relay_host + "/fig5-relay");
  std::vector<std::string> ep_addresses = {
      endpoint::endpoint_address(client_host, "fig5-ep-client")};
  if (task_host != client_host) {
    endpoint::Endpoint::start(*s->tb.world, task_host, "fig5-ep-task",
                              "relay://" + s->tb.relay_host + "/fig5-relay");
    ep_addresses.push_back(
        endpoint::endpoint_address(task_host, "fig5-ep-task"));
  }
  {
    proc::ProcessScope scope(*s->client);
    add_store_method(
        "EndpointStore",
        std::make_shared<core::Store>(
            "fig5-ep", std::make_shared<connectors::EndpointConnector>(
                           ep_addresses)));
  }

  if (!intra_site) {
    // GlobusStore: Globus transfer endpoints at both sites.
    auto transfer = globus::TransferService::start(*s->tb.world);
    const Uuid gep_client =
        transfer->register_endpoint(client_host, base / "globus-client");
    const Uuid gep_task =
        transfer->register_endpoint(task_host, base / "globus-task");
    {
      proc::ProcessScope scope(*s->client);
      add_store_method(
          "GlobusStore",
          std::make_shared<core::Store>(
              "fig5-globus",
              std::make_shared<connectors::GlobusConnector>(
                  std::vector<connectors::GlobusEndpointSpec>{
                      {"^" + client_host + "$", gep_client},
                      {"^" + task_host + "$", gep_task}})));
    }

    // IPFS: the client and the Globus Compute endpoint as two peers.
    auto node_client = ipfs::IpfsNode::start(*s->tb.world, client_host,
                                             "fig5", base / "ipfs-client");
    auto node_task = ipfs::IpfsNode::start(*s->tb.world, task_host, "fig5",
                                           base / "ipfs-task");
    node_client->connect(node_task);
    const std::string task_node_address = "ipfs://" + task_host + "/fig5";
    s->methods.push_back(Method{
        "IPFS", [sp, node_client, task_node_address](
                    std::size_t bytes, bool sleep) -> double {
          proc::ProcessScope scope(*sp->client);
          const Bytes data = pattern_bytes(bytes, sp->seed++);
          sim::VtimeScope rtt;
          IpfsTaskRequest request;
          request.cid = node_client->add(data);  // disk + content hashing
          request.node_address = task_node_address;
          request.sleep = sleep;
          request.expect_bytes = bytes;
          faas::Executor executor(sp->cloud, sp->endpoint->uuid());
          auto future =
              executor.submit("fig5-ipfs-task", serde::to_bytes(request));
          future.get();
          return rtt.elapsed();
        }});
  }

  return s;
}

void run_scenario(Scenario& scenario, bool sleep,
                  const ps::bench::Args& args) {
  const std::vector<std::size_t> sizes =
      args.cap({10,      1'000,     10'000,     100'000,
                1'000'000, 5'000'000, 10'000'000, 100'000'000});
  std::vector<std::string> header = {"payload"};
  for (const Method& m : scenario.methods) header.push_back(m.name);
  ps::bench::print_header("Fig 5 [" + scenario.name + "] " +
                          (sleep ? "1 s sleep tasks" : "no-op tasks"));
  ps::bench::print_row(header);
  for (const std::size_t size : sizes) {
    std::vector<std::string> row = {ps::bench::fmt_size(size)};
    for (const Method& method : scenario.methods) {
      const int kReps = args.reps_or(3);
      // Repetitions accumulate in a per-cell registry series; the printed
      // cell reads back from the registry.
      const std::string cell = "fig5." + scenario.name + "." + method.name +
                               "." + std::to_string(size) +
                               (sleep ? ".sleep" : ".noop");
      obs::Histogram& rtts = ps::bench::series(cell);
      bool over_limit = false;
      for (int rep = 0; rep < kReps && !over_limit; ++rep) {
        const double rtt = method.run(size, sleep);
        if (rtt < 0) {
          over_limit = true;
        } else {
          rtts.observe(rtt);
        }
      }
      row.push_back(over_limit ? "limit" : ps::bench::fmt_series(cell));
    }
    ps::bench::print_row(row);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ps::bench::Args args =
      ps::bench::parse_args("fig5_faas_rtt", argc, argv);
  register_tasks();
  struct Spec {
    std::string name;
    std::string client;
    std::string task;
    bool intra;
  };
  testbed::Testbed names;  // just for the host name constants
  const std::vector<Spec> specs = {
      {"Theta -> Theta (intra-site)", names.theta_login, names.theta_login,
       true},
      {"Perlmutter login -> compute (intra-site)", names.perlmutter_login,
       names.perlmutter_compute, true},
      {"Midway2 -> Theta (inter-site)", names.midway_login,
       names.theta_compute0, false},
      {"Frontera -> Theta (inter-site)", names.frontera_login,
       names.theta_compute0, false},
  };
  for (const bool sleep : {false, true}) {
    for (const Spec& spec : specs) {
      auto scenario =
          make_scenario(spec.name, spec.client, spec.task, spec.intra);
      run_scenario(*scenario, sleep, args);
      scenario->endpoint->stop();
    }
  }
  ps::bench::finish(args);
  return 0;
}
