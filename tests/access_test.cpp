// AccessControlConnector: confidential objects resolve only where
// permitted (paper section 3.3's patient-health-information example).
#include <gtest/gtest.h>

#include "connectors/access.hpp"
#include "connectors/local.hpp"
#include "connectors/redis.hpp"
#include "core/store.hpp"
#include "kv/server.hpp"
#include "obs/metrics.hpp"
#include "proc/world.hpp"
#include "serde/serde.hpp"

namespace ps::connectors {
namespace {

/// Forwards to a LocalConnector and counts the calls that reach it, single
/// key and batch apart.
class CountingConnector : public core::Connector {
 public:
  std::string type() const override { return inner_.type(); }
  core::ConnectorConfig config() const override { return inner_.config(); }
  core::ConnectorTraits traits() const override { return inner_.traits(); }
  core::Key put(BytesView data) override { return inner_.put(data); }
  std::optional<Bytes> get(const core::Key& key) override {
    ++single_calls;
    return inner_.get(key);
  }
  bool exists(const core::Key& key) override {
    ++single_calls;
    return inner_.exists(key);
  }
  void evict(const core::Key& key) override {
    ++single_calls;
    inner_.evict(key);
  }
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<core::Key>& keys) override {
    ++batch_calls;
    return inner_.get_batch(keys);
  }
  std::vector<bool> exists_batch(const std::vector<core::Key>& keys) override {
    ++batch_calls;
    return inner_.exists_batch(keys);
  }
  void evict_batch(const std::vector<core::Key>& keys) override {
    ++batch_calls;
    inner_.evict_batch(keys);
  }

  int single_calls = 0;
  int batch_calls = 0;

 private:
  LocalConnector inner_;
};

class AccessTest : public ::testing::Test {
 protected:
  AccessTest() {
    world_ = std::make_unique<proc::World>();
    world_->fabric().add_site("hospital", net::hpc_interconnect(1e-5, 1e9));
    world_->fabric().add_site("hpc", net::hpc_interconnect(1e-5, 1e9));
    world_->fabric().add_site("cloud", net::hpc_interconnect(1e-5, 1e9));
    world_->fabric().connect_sites("hospital", "hpc", net::wan_tcp(5e-3, 1e9));
    world_->fabric().connect_sites("hospital", "cloud",
                                   net::wan_tcp(5e-3, 1e9));
    world_->fabric().add_host("hospital-node", "hospital");
    world_->fabric().add_host("hpc-node", "hpc");
    world_->fabric().add_host("cloud-node", "cloud");
    hospital_ = &world_->spawn("hospital-proc", "hospital-node");
    hpc_ = &world_->spawn("hpc-proc", "hpc-node");
    cloud_ = &world_->spawn("cloud-proc", "cloud-node");
  }

  std::shared_ptr<AccessControlConnector> make_connector() {
    proc::ProcessScope scope(*hospital_);
    return std::make_shared<AccessControlConnector>(
        std::make_shared<LocalConnector>(),
        std::set<std::string>{"hospital", "hpc"});
  }

  std::unique_ptr<proc::World> world_;
  proc::Process* hospital_ = nullptr;
  proc::Process* hpc_ = nullptr;
  proc::Process* cloud_ = nullptr;
};

TEST_F(AccessTest, AllowedSitesResolve) {
  auto connector = make_connector();
  core::Key key;
  {
    proc::ProcessScope scope(*hospital_);
    key = connector->put("phi-record");
    EXPECT_EQ(connector->get(key), "phi-record");
  }
  proc::ProcessScope scope(*hpc_);
  EXPECT_EQ(connector->get(key), "phi-record");
  EXPECT_TRUE(connector->exists(key));
}

TEST_F(AccessTest, DisallowedSiteDenied) {
  auto connector = make_connector();
  core::Key key;
  {
    proc::ProcessScope scope(*hospital_);
    key = connector->put("phi-record");
  }
  proc::ProcessScope scope(*cloud_);
  EXPECT_THROW(connector->get(key), AccessDeniedError);
  EXPECT_THROW(connector->exists(key), AccessDeniedError);
}

TEST_F(AccessTest, ProxyCirculatesButResolvesOnlyWherePermitted) {
  Bytes wire;
  {
    proc::ProcessScope scope(*hospital_);
    auto store = std::make_shared<core::Store>("phi-store", make_connector());
    core::register_store(store);
    wire = serde::to_bytes(store->proxy(std::string("scan-data")));
  }
  {
    // The proxy itself travels anywhere — including the cloud...
    proc::ProcessScope scope(*cloud_);
    auto proxy = serde::from_bytes<core::Proxy<std::string>>(wire);
    EXPECT_THROW(proxy.resolve(), AccessDeniedError);
  }
  {
    // ...but the data only materializes at permitted sites.
    proc::ProcessScope scope(*hpc_);
    auto proxy = serde::from_bytes<core::Proxy<std::string>>(wire);
    EXPECT_EQ(*proxy, "scan-data");
  }
}

TEST_F(AccessTest, ConfigRoundTripsThroughRegistry) {
  auto connector = make_connector();
  core::Key key;
  {
    proc::ProcessScope scope(*hospital_);
    key = connector->put("data");
  }
  proc::ProcessScope scope(*hpc_);
  auto rebuilt =
      core::ConnectorRegistry::instance().reconstruct(connector->config());
  EXPECT_EQ(rebuilt->type(), "access");
  EXPECT_EQ(rebuilt->get(key), "data");
}

TEST_F(AccessTest, EvictionAllowedAnywhere) {
  // Deleting data is not an information flow; any holder may evict.
  auto connector = make_connector();
  core::Key key;
  {
    proc::ProcessScope scope(*hospital_);
    key = connector->put("data");
  }
  {
    proc::ProcessScope scope(*cloud_);
    EXPECT_NO_THROW(connector->evict(key));
  }
  proc::ProcessScope scope(*hospital_);
  EXPECT_FALSE(connector->exists(key));
}

TEST_F(AccessTest, BatchVerbsForwardAsOneInnerCall) {
  auto counting = std::make_shared<CountingConnector>();
  AccessControlConnector connector(counting, {"hospital", "hpc"});
  std::vector<core::Key> keys;
  {
    proc::ProcessScope scope(*hospital_);
    keys = {connector.put("a"), connector.put("b"), connector.put("c")};
  }
  {
    proc::ProcessScope scope(*hpc_);
    const auto values = connector.get_batch(keys);
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[1], "b");
    EXPECT_EQ(counting->batch_calls, 1);
    EXPECT_EQ(connector.exists_batch(keys),
              (std::vector<bool>{true, true, true}));
    EXPECT_EQ(counting->batch_calls, 2);
  }
  {
    // Eviction stays allowed anywhere, as one batch.
    proc::ProcessScope scope(*cloud_);
    connector.evict_batch(keys);
    EXPECT_EQ(counting->batch_calls, 3);
  }
  EXPECT_EQ(counting->single_calls, 0);
  proc::ProcessScope scope(*hospital_);
  EXPECT_EQ(connector.exists_batch(keys),
            (std::vector<bool>{false, false, false}));
}

TEST_F(AccessTest, StoreBatchesThroughTheFenceCostOneInnerCall) {
  auto counting = std::make_shared<CountingConnector>();
  proc::ProcessScope scope(*hpc_);
  core::Store store("phi-batch",
                    std::make_shared<AccessControlConnector>(
                        counting, std::set<std::string>{"hospital", "hpc"}),
                    core::Store::Options{.cache_size = 0});
  const std::vector<core::Key> keys = store.put_batch(
      std::vector<std::string>{"x", "y", "z", "w"});
  const auto values = store.resolve_batch<std::string>(keys);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[3], "w");
  store.evict_batch(keys);
  EXPECT_EQ(counting->batch_calls, 2);
  EXPECT_EQ(counting->single_calls, 0);
}

TEST_F(AccessTest, DeniedSiteBatchThrowsBeforeAnyInnerCall) {
  auto counting = std::make_shared<CountingConnector>();
  AccessControlConnector connector(counting, {"hospital", "hpc"});
  std::vector<core::Key> keys;
  {
    proc::ProcessScope scope(*hospital_);
    keys = {connector.put("a"), connector.put("b")};
  }
  proc::ProcessScope scope(*cloud_);
  EXPECT_THROW(connector.get_batch(keys), AccessDeniedError);
  EXPECT_THROW(connector.exists_batch(keys), AccessDeniedError);
  EXPECT_EQ(counting->batch_calls, 0);
  EXPECT_EQ(counting->single_calls, 0);
}

TEST_F(AccessTest, AsyncReadsKeepTheInnerStoresNativeFuture) {
  // A fenced Redis store reads completion-driven: the fence checks the site
  // once per call and parks no executor worker.
  {
    proc::ProcessScope scope(*hospital_);
    kv::KvServer::start(*world_, "hospital-node", "phi-kv");
  }
  proc::ProcessScope scope(*hpc_);
  AccessControlConnector connector(
      std::make_shared<RedisConnector>(kv::kv_address("hospital-node",
                                                      "phi-kv")),
      {"hospital", "hpc"});
  const std::vector<core::Key> keys = {connector.put("a"), connector.put("b")};
  obs::Counter& submitted =
      obs::MetricsRegistry::global().counter("async.executor.submitted");
  const std::uint64_t before = submitted.value();
  EXPECT_EQ(connector.get_async(keys[1]).get(), "b");
  EXPECT_EQ(connector.get_batch_async(keys).get(),
            (std::vector<std::optional<Bytes>>{"a", "b"}));
  EXPECT_EQ(submitted.value(), before);
}

TEST_F(AccessTest, DeniedSiteAsyncReadFailsBeforeAnyInnerCall) {
  auto counting = std::make_shared<CountingConnector>();
  AccessControlConnector connector(counting, {"hospital", "hpc"});
  std::vector<core::Key> keys;
  {
    proc::ProcessScope scope(*hospital_);
    keys = {connector.put("a"), connector.put("b")};
  }
  proc::ProcessScope scope(*cloud_);
  EXPECT_THROW(connector.get_async(keys[0]).get(), AccessDeniedError);
  EXPECT_THROW(connector.get_batch_async(keys).get(), AccessDeniedError);
  EXPECT_EQ(counting->batch_calls, 0);
  EXPECT_EQ(counting->single_calls, 0);
}

TEST_F(AccessTest, RejectsBadConstruction) {
  proc::ProcessScope scope(*hospital_);
  EXPECT_THROW(AccessControlConnector(nullptr, {"hospital"}), ConnectorError);
  EXPECT_THROW(
      AccessControlConnector(std::make_shared<LocalConnector>(), {}),
      ConnectorError);
}

TEST_F(AccessTest, DataflowFuturesRespectAccessControl) {
  proc::ProcessScope scope(*hospital_);
  auto store = std::make_shared<core::Store>("phi-df", make_connector());
  core::register_store(store);
  auto future = store->make_future<std::string>();
  store->fulfill(future.key, std::string("late-phi"));
  const Bytes wire = serde::to_bytes(future.proxy);
  {
    proc::ProcessScope cloud_scope(*cloud_);
    auto proxy = serde::from_bytes<core::Proxy<std::string>>(wire);
    EXPECT_THROW(proxy.resolve(), AccessDeniedError);
  }
  EXPECT_EQ(*future.proxy, "late-phi");
}

}  // namespace
}  // namespace ps::connectors
