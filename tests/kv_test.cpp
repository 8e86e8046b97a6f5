#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "kv/client.hpp"
#include "kv/server.hpp"
#include "proc/world.hpp"
#include "sim/vtime.hpp"

namespace ps::kv {
namespace {

namespace fs = std::filesystem;

class KvTest : public ::testing::Test {
 protected:
  KvTest() {
    world_ = std::make_unique<proc::World>();
    world_->fabric().add_site("site", net::hpc_interconnect(50e-6, 10e9));
    world_->fabric().add_host("server-host", "site");
    world_->fabric().add_host("client-host", "site");
    client_proc_ = &world_->spawn("client", "client-host");
  }

  std::unique_ptr<proc::World> world_;
  proc::Process* client_proc_ = nullptr;
};

TEST_F(KvTest, SetGetRoundTrip) {
  auto server = KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  client.set("k", "value");
  EXPECT_EQ(client.get("k"), "value");
}

TEST_F(KvTest, GetMissingReturnsNullopt) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  EXPECT_EQ(client.get("nope"), std::nullopt);
}

TEST_F(KvTest, ExistsAndDelete) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  client.set("k", "v");
  EXPECT_TRUE(client.exists("k"));
  EXPECT_TRUE(client.del("k"));
  EXPECT_FALSE(client.exists("k"));
  EXPECT_FALSE(client.del("k"));
}

TEST_F(KvTest, OverwriteReplacesValue) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  client.set("k", "v1");
  client.set("k", "v2");
  EXPECT_EQ(client.get("k"), "v2");
}

TEST_F(KvTest, BinaryValuesAreSafe) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  const Bytes blob = pattern_bytes(100000, 9);
  client.set("blob", blob);
  EXPECT_EQ(client.get("blob"), blob);
}

TEST_F(KvTest, UnknownAddressThrows) {
  proc::ProcessScope scope(*client_proc_);
  EXPECT_THROW(KvClient("redis://nowhere/db"), NotRegisteredError);
}

TEST_F(KvTest, TtlExpiresInVirtualTime) {
  auto server = KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  sim::VtimeGuard guard;
  KvClient client(kv_address("server-host", "db"));
  client.set("k", "v", std::chrono::milliseconds(100));
  EXPECT_EQ(client.get("k"), "v");
  sim::vadvance(0.2);  // 200 ms of virtual time pass
  EXPECT_EQ(client.get("k"), std::nullopt);
}

TEST_F(KvTest, OperationsChargeVirtualTime) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  sim::VtimeGuard guard;
  KvClient client(kv_address("server-host", "db"));
  sim::VtimeScope scope_small;
  client.set("small", pattern_bytes(100));
  const double small_cost = scope_small.elapsed();
  sim::VtimeScope scope_large;
  client.set("large", pattern_bytes(100'000'000));
  const double large_cost = scope_large.elapsed();
  EXPECT_GT(small_cost, 0.0);
  EXPECT_GT(large_cost, 10.0 * small_cost);
}

TEST_F(KvTest, QueueSerializesConcurrentVirtualRequests) {
  auto server = KvServer::start(*world_, "server-host", "db");
  // Two requests arriving at the same virtual instant are served one after
  // the other by the single-threaded server.
  const double service = server->service_time(0);
  const double first = server->queue().schedule(0.0, service);
  const double second = server->queue().schedule(0.0, service);
  EXPECT_NEAR(second - first, service, 1e-12);
}

TEST_F(KvTest, AofPersistsAcrossRestart) {
  const fs::path aof = fs::temp_directory_path() / "ps_kv_test.aof";
  fs::remove(aof);
  KvServerOptions opts;
  opts.aof_path = aof;
  {
    KvServer server("server-host", opts);
    server.set("persisted", "yes");
    server.set("deleted", "gone");
    server.del("deleted");
  }
  {
    KvServer revived("server-host", opts);
    EXPECT_EQ(revived.get("persisted"), "yes");
    EXPECT_EQ(revived.get("deleted"), std::nullopt);
    EXPECT_EQ(revived.size(), 1u);
  }
  fs::remove(aof);
}

TEST_F(KvTest, CorruptAofRejected) {
  const fs::path aof = fs::temp_directory_path() / "ps_kv_corrupt.aof";
  {
    std::ofstream out(aof, std::ios::binary | std::ios::trunc);
    out << "garbage that is not a record";
  }
  KvServerOptions opts;
  opts.aof_path = aof;
  EXPECT_THROW(KvServer("server-host", opts), ps::Error);
  fs::remove(aof);
}

TEST_F(KvTest, SetManyStoresAllPairs) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  client.set_many({{"a", "1"}, {"b", "2"}, {"c", "3"}});
  EXPECT_EQ(client.get("a"), "1");
  EXPECT_EQ(client.get("b"), "2");
  EXPECT_EQ(client.get("c"), "3");
}

TEST_F(KvTest, PipelinedSetManyCheaperThanIndividualSets) {
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  sim::VtimeGuard guard;
  KvClient client(kv_address("server-host", "db"));
  std::vector<std::pair<std::string, Bytes>> pairs;
  for (int i = 0; i < 32; ++i) {
    pairs.emplace_back("k" + std::to_string(i), pattern_bytes(100));
  }
  sim::VtimeScope individual;
  for (const auto& [key, value] : pairs) client.set(key, value);
  const double one_by_one = individual.elapsed();
  sim::VtimeScope batched;
  client.set_many(pairs);
  // One round trip instead of 32.
  EXPECT_LT(batched.elapsed(), one_by_one / 8.0);
}

TEST_F(KvTest, FlushAllEmptiesStore) {
  KvServer server("server-host");
  server.set("a", "1");
  server.set("b", "2");
  EXPECT_EQ(server.size(), 2u);
  server.flush_all();
  EXPECT_EQ(server.size(), 0u);
}

TEST_F(KvTest, RebindSimulatesServerRestart) {
  KvServer::start(*world_, "server-host", "db");
  {
    proc::ProcessScope scope(*client_proc_);
    KvClient client(kv_address("server-host", "db"));
    client.set("k", "v");
  }
  // Restart: a fresh (empty) server takes over the address.
  KvServer::start(*world_, "server-host", "db");
  proc::ProcessScope scope(*client_proc_);
  KvClient client(kv_address("server-host", "db"));
  EXPECT_EQ(client.get("k"), std::nullopt);
}

TEST_F(KvTest, ValueSizeExpiresLikeGet) {
  KvServer server("server-host");
  for (const char* key : {"peeked", "read"}) {
    server.set(key, "12345", std::chrono::milliseconds(100), 0.0);
  }
  EXPECT_EQ(server.value_size("peeked", 0.05), 5u);
  EXPECT_EQ(server.get("read", 0.05), "12345");
  EXPECT_EQ(server.value_size("ghost", 0.05), std::nullopt);
  // Past the TTL both report the key absent and erase it.
  EXPECT_EQ(server.value_size("peeked", 0.2), std::nullopt);
  EXPECT_EQ(server.size(), 1u);
  EXPECT_EQ(server.get("read", 0.2), std::nullopt);
  EXPECT_EQ(server.size(), 0u);
}

TEST_F(KvTest, GetsChargeTheWireCostOfTheValueSize) {
  // Every GET flavour charges one exchange whose reply is the value's
  // size, or an 8-byte nil reply when the key is absent or expired.
  using ChargedVtime = std::function<double(KvClient&, const std::string&)>;
  const std::vector<std::pair<const char*, ChargedVtime>> ops = {
      {"get",
       [](KvClient& c, const std::string& k) {
         sim::VtimeScope charged;
         c.get(k);
         return charged.elapsed();
       }},
      {"get_many",
       [](KvClient& c, const std::string& k) {
         sim::VtimeScope charged;
         c.get_many({k});
         return charged.elapsed();
       }},
      {"get_async",
       [](KvClient& c, const std::string& k) {
         const double issued = sim::vnow();
         return c.get_async(k).done_vtime() - issued;
       }},
      {"get_many_async", [](KvClient& c, const std::string& k) {
         const double issued = sim::vnow();
         return c.get_many_async({k}).done_vtime() - issued;
       }}};
  enum class State { kPresent, kAbsent, kExpired };
  constexpr std::size_t kValueBytes = 1000;
  const std::string key = "k";
  int server_id = 0;
  for (const auto& [name, op] : ops) {
    for (const State state : {State::kPresent, State::kAbsent,
                              State::kExpired}) {
      // A fresh server and channel per case, so no queueing carries over.
      const std::string db = "db" + std::to_string(server_id++);
      auto server = KvServer::start(*world_, "server-host", db);
      proc::ProcessScope scope(*client_proc_);
      sim::VtimeGuard guard;
      KvClient client(kv_address("server-host", db));
      if (state == State::kPresent) {
        client.set(key, pattern_bytes(kValueBytes));
      } else if (state == State::kExpired) {
        client.set(key, pattern_bytes(kValueBytes),
                   std::chrono::milliseconds(100));
        sim::vadvance(0.2);
      }
      const std::size_t reply = state == State::kPresent ? kValueBytes : 8;
      const net::Fabric& fabric = world_->fabric();
      const double expected =
          fabric.transfer_time("client-host", "server-host", key.size()) +
          server->service_time(std::max(key.size(), reply)) +
          fabric.transfer_time("server-host", "client-host", reply);
      const double charged = op(client, key);
      EXPECT_NEAR(charged, expected, 1e-12)
          << name << " state=" << static_cast<int>(state);
      EXPECT_EQ(server->size(), state == State::kPresent ? 1u : 0u) << name;
    }
  }
}

}  // namespace
}  // namespace ps::kv
