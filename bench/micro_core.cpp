// Component-level microbenchmarks (google-benchmark): the real (wall-clock)
// costs of the proxy machinery itself — proxy creation, resolution,
// serialization, cache lookups, and connector round trips. These measure
// the library's own overhead, complementing the virtual-time figure
// harnesses that model network costs.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "connectors/local.hpp"
#include "core/cache.hpp"
#include "core/proxy.hpp"
#include "core/store.hpp"
#include "proc/world.hpp"
#include "serde/serde.hpp"

namespace {

using namespace ps;

std::shared_ptr<core::Store> bench_store() {
  static std::shared_ptr<core::Store> store = [] {
    auto s = std::make_shared<core::Store>(
        "bench-store", std::make_shared<connectors::LocalConnector>());
    core::register_store(s, /*overwrite=*/true);
    return s;
  }();
  return store;
}

void BM_SerdeEncodeBytes(benchmark::State& state) {
  const Bytes payload = pattern_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serde::to_bytes(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SerdeEncodeBytes)->Range(64, 1 << 24);

void BM_SerdeDecodeBytes(benchmark::State& state) {
  const Bytes encoded =
      serde::to_bytes(pattern_bytes(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serde::from_bytes<Bytes>(encoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SerdeDecodeBytes)->Range(64, 1 << 24);

void BM_SerdeNestedStructure(benchmark::State& state) {
  std::map<std::string, std::vector<double>> value;
  for (int i = 0; i < 32; ++i) {
    value.emplace("key-" + std::to_string(i), std::vector<double>(64, 1.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(serde::to_bytes(value));
  }
}
BENCHMARK(BM_SerdeNestedStructure);

void BM_ProxyCreate(benchmark::State& state) {
  auto store = bench_store();
  const Bytes payload = pattern_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const core::Proxy<Bytes> proxy = store->proxy(payload);
    benchmark::DoNotOptimize(proxy);
    // Release the object untimed: a store that only grows measures page
    // faults on fresh memory, not proxy creation.
    state.PauseTiming();
    store->evict(proxy.factory().descriptor()->key);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ProxyCreate)->Range(64, 1 << 20);

void BM_ProxyFirstResolve(benchmark::State& state) {
  auto store = bench_store();
  const Bytes payload = pattern_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    auto proxy = store->proxy(payload);
    store->cache().clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(proxy.resolve().size());
    state.PauseTiming();
    store->evict(proxy.factory().descriptor()->key);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ProxyFirstResolve)->Range(64, 1 << 20);

void BM_ProxyCachedAccess(benchmark::State& state) {
  auto store = bench_store();
  auto proxy = store->proxy(pattern_bytes(1 << 16));
  proxy.resolve();
  for (auto _ : state) {
    benchmark::DoNotOptimize(proxy->size());
  }
}
BENCHMARK(BM_ProxyCachedAccess);

void BM_ProxySerialize(benchmark::State& state) {
  auto store = bench_store();
  auto proxy = store->proxy(pattern_bytes(1 << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serde::to_bytes(proxy));
  }
}
BENCHMARK(BM_ProxySerialize);

void BM_ProxyDeserialize(benchmark::State& state) {
  auto store = bench_store();
  const Bytes wire = serde::to_bytes(store->proxy(pattern_bytes(1 << 20)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serde::from_bytes<core::Proxy<Bytes>>(wire));
  }
}
BENCHMARK(BM_ProxyDeserialize);

void BM_CacheHit(benchmark::State& state) {
  core::ObjectCache cache(64);
  cache.put<int>("key", std::make_shared<const int>(42));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get<int>("key"));
  }
}
BENCHMARK(BM_CacheHit);

void BM_CacheMiss(benchmark::State& state) {
  core::ObjectCache cache(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get<int>("missing"));
  }
}
BENCHMARK(BM_CacheMiss);

void BM_LocalConnectorPutGet(benchmark::State& state) {
  connectors::LocalConnector connector;
  const Bytes payload = pattern_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const core::Key key = connector.put(payload);
    benchmark::DoNotOptimize(connector.get(key));
    connector.evict(key);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 2);
}
BENCHMARK(BM_LocalConnectorPutGet)->Range(64, 1 << 22);

void BM_StoreGetCached(benchmark::State& state) {
  auto store = bench_store();
  const core::Key key = store->put(pattern_bytes(1 << 16));
  store->get<Bytes>(key);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->get<Bytes>(key));
  }
}
BENCHMARK(BM_StoreGetCached);

/// Console reporter that additionally records each benchmark's measured
/// real time per iteration into a wall-clock registry series, so the
/// shared --json artifact writer can export it.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations <= 0) continue;
      ps::bench::series("micro." + run.benchmark_name(), "wall", "s")
          .observe(run.real_accumulated_time /
                   static_cast<double>(run.iterations));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Strip the shared bench flags before google-benchmark sees the rest.
  std::string json_path;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int forwarded = static_cast<int>(passthrough.size());
  benchmark::Initialize(&forwarded, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded, passthrough.data())) {
    return 1;
  }
  ps::obs::set_enabled(true);
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) {
    ps::bench::Args args;
    args.bench_name = "micro_core";
    args.json_path = json_path;
    ps::bench::finish(args);
  }
  return 0;
}
