// Payload copy budget of a proxy handoff.
//
// Counts the heap allocations at least as large as the payload while a
// 4 MiB Bytes proxy is created on theta over RedisConnector and resolved on
// polaris: serialize, the kv SET, the kv GET reply, and — for a proxy that
// is not evicted on resolve — the cache-to-caller copy. The count comes
// from a replaced global operator new, which is why this test is an
// executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "connectors/redis.hpp"
#include "core/store.hpp"
#include "kv/server.hpp"
#include "proc/world.hpp"
#include "serde/serde.hpp"
#include "testbed/testbed.hpp"

namespace {

/// Allocations of at least this many bytes are counted; 0 counts nothing.
std::atomic<std::size_t> g_count_from{0};
std::atomic<std::size_t> g_counted{0};

}  // namespace

void* operator new(std::size_t n) {
  const std::size_t from = g_count_from.load(std::memory_order_relaxed);
  if (from != 0 && n >= from) {
    g_counted.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Not inlined: GCC flags free() inlined into a delete whose pointer came
// from operator new as a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace ps {
namespace {

constexpr std::size_t kPayloadBytes = 4 << 20;

class CopyBudgetTest : public ::testing::Test {
 protected:
  CopyBudgetTest() : tb_(testbed::build()) {
    proc::World& world = *tb_.world;
    server_ = kv::KvServer::start(world, tb_.theta_login, "copies");
    producer_ = &world.spawn("producer", tb_.theta_compute0);
    consumer_ = &world.spawn("consumer", tb_.polaris_compute0);
    proc::ProcessScope scope(*producer_);
    store_ = std::make_shared<core::Store>(
        "copies", std::make_shared<connectors::RedisConnector>(
                      kv::kv_address(tb_.theta_login, "copies")));
    core::register_store(store_);
  }

  /// Hands a proxy of `payload` from theta to polaris and resolves it there;
  /// returns the payload-sized allocations made along the way.
  std::size_t handoff(const Bytes& payload, bool evict) {
    g_counted = 0;
    g_count_from = payload.size();
    Bytes wire;
    {
      proc::ProcessScope scope(*producer_);
      wire = serde::to_bytes(store_->proxy(payload, evict));
    }
    std::optional<core::Proxy<Bytes>> received;
    {
      proc::ProcessScope scope(*consumer_);
      received.emplace(serde::from_bytes<core::Proxy<Bytes>>(wire));
      received->resolve();
    }
    g_count_from = 0;
    const std::size_t counted = g_counted;
    EXPECT_TRUE(received->resolve() == payload);
    std::cout << (evict ? "evict-on-resolve" : "plain") << " handoff: "
              << counted << " payload-sized allocations\n";
    return counted;
  }

  testbed::Testbed tb_;
  std::shared_ptr<kv::KvServer> server_;
  proc::Process* producer_ = nullptr;
  proc::Process* consumer_ = nullptr;
  std::shared_ptr<core::Store> store_;
};

TEST_F(CopyBudgetTest, EvictOnResolveCopiesThreeTimes) {
  const Bytes payload = pattern_bytes(kPayloadBytes, 1);
  const std::size_t copies = handoff(payload, /*evict=*/true);
  EXPECT_GT(copies, 0u) << "operator new is not counting";
  EXPECT_LE(copies, 3u);
  EXPECT_EQ(server_->size(), 0u);
}

TEST_F(CopyBudgetTest, PlainProxyCopiesFourTimes) {
  const Bytes payload = pattern_bytes(kPayloadBytes, 2);
  const std::size_t copies = handoff(payload, /*evict=*/false);
  EXPECT_GT(copies, 0u) << "operator new is not counting";
  EXPECT_LE(copies, 4u);
  EXPECT_EQ(server_->size(), 1u);
}

}  // namespace
}  // namespace ps
