// Byte-exact golden tests for every obs writer.
//
// Each test renders one exporter over fixed inputs — hand-set counters,
// gauges and histogram observations, explicit trace contexts and virtual
// clocks, and SpanRecords with explicit wall and vtime stamps — and compares
// the output byte for byte with a checked-in file under tests/golden/obs/.
// The files pin the exact bytes every artifact, `psctl` view and
// Prometheus scrape depends on, so a refactor of the writers must leave them
// untouched. The last test re-emits every blessed baseline under
// results/baselines/ and requires the original bytes back.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critical.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/vtime.hpp"

namespace ps::obs {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::filesystem::path path =
      std::filesystem::path(PS_SOURCE_DIR) / "tests" / "golden" / "obs" / name;
  EXPECT_EQ(actual, read_file(path)) << "golden mismatch: " << name;
}

// ------------------------------------------------------------- fixtures ----

/// Observes `seconds` under a fixed trace context at virtual time `vtime`,
/// so the bucket's exemplar is deterministic.
void observe_traced(Histogram& h, double seconds, std::uint64_t span_id,
                    double vtime) {
  const double saved = sim::vnow();
  sim::vset(vtime);
  {
    ContextScope scope(TraceContext{0x0123456789abcdefULL,
                                    0xfedcba9876543210ULL, span_id, 0});
    h.observe(seconds);
  }
  sim::vset(saved);
}

/// Counters, gauges of every aggregation hint, a short (reservoir-exact)
/// histogram with exemplars, a long (bucket-interpolated) histogram, an
/// empty histogram, and names that need JSON escaping.
void fill_registry(MetricsRegistry& registry, int scale) {
  registry.counter("ops.put").inc(3 * scale);
  registry.counter("ops.get").inc(11 * scale);
  registry.counter("odd \"name\"\\with\tctl\x01").inc(7);
  registry.gauge("queue.depth", GaugeAgg::kMax).set(2.5 * scale);
  registry.gauge("bytes.held", GaugeAgg::kSum).set(1024.0 * scale);
  registry.gauge("phase").set(0.125 * scale);

  Histogram& lat = registry.histogram("lat.short");
  for (const double s : {1e-6, 2.5e-5, 3e-4, 0.004, 0.05, 0.75, 2.0}) {
    lat.observe(s * scale);
  }
  observe_traced(lat, 0.0042 * scale, 17, 12.5);
  observe_traced(lat, 0.8 * scale, 18, 13.25);
  observe_traced(lat, 0.0041, 19, 14.0);  // loses to the 0.0042 witness

  Histogram& longer = registry.histogram("lat.long");
  for (int i = 0; i < 1500; ++i) {
    longer.observe(1e-6 * (1 + i % 97) * (1 + i % 7) * scale);
  }
  registry.histogram("lat.empty");
}

SpanRecord span(std::uint64_t hi, std::uint64_t lo, std::uint64_t id,
                std::uint64_t parent, const std::string& name, double v0,
                double v1, double w0, double w1,
                const std::string& site = "theta",
                const std::string& process = "client",
                const std::string& kind = {}) {
  SpanRecord s;
  s.ctx = TraceContext{hi, lo, id, parent};
  s.name = name;
  s.kind = kind;
  s.process = process;
  s.host = site + "-login";
  s.site = site;
  s.vtime_start = v0;
  s.vtime_end = v1;
  s.wall_start = w0;
  s.wall_end = w1;
  return s;
}

/// Two traces (one with overlapping children and an async child running
/// past its parent), an orphan whose parent rolled out of the buffer, a
/// span outside any trace, and names that need JSON escaping.
std::vector<SpanRecord> fixed_spans() {
  std::vector<SpanRecord> spans;
  spans.push_back(span(1, 2, 11, 10, "connector.put", 0.1, 0.6, 0.001, 0.004,
                       "theta", "client"));
  spans.push_back(span(1, 2, 12, 11, "rpc.call", 0.2, 0.4, 0.002, 0.003,
                       "polaris", "kv-server", "wire-transfer"));
  spans.push_back(span(1, 2, 13, 10, "serialize", 0.5, 0.8, 0.004, 0.0045));
  spans.push_back(span(1, 2, 14, 10, "async.executor.queue", 0.9, 1.3, 0.005,
                       0.009));
  spans.push_back(span(1, 2, 10, 0, "store.proxy", 0.0, 1.0, 0.0, 0.01,
                       "theta", "client", "client"));
  spans.back().subject = "store/key-1";
  spans.push_back(span(3, 4, 21, 20, "faas.dispatch \"q\"", 2.0, 2.25, 0.02,
                       0.021, "perlmutter", "worker\t1"));
  spans.push_back(span(3, 4, 20, 0, "store.proxy", 1.5, 2.5, 0.015, 0.03,
                       "theta", "client"));
  spans.push_back(span(3, 4, 30, 99, "stream.poll", 3.0, 3.5, 0.031, 0.032,
                       "chameleon", "consumer"));
  spans.push_back(span(0, 0, 40, 0, "untraced", 4.0, 4.125, 0.04, 0.041));
  return spans;
}

RegistrySnapshot snapshot_of(int scale, double vtime) {
  MetricsRegistry registry;
  fill_registry(registry, scale);
  return registry.take_snapshot(vtime);
}

// ---------------------------------------------------------------- tests ----

TEST(ObsGolden, RegistryDumpJsonAndTable) {
  MetricsRegistry registry;
  fill_registry(registry, 1);
  expect_golden("metrics_dump.json", registry.dump_json());
  expect_golden("metrics_dump_table.txt", registry.dump_table());
}

TEST(ObsGolden, PrometheusText) {
  MetricsRegistry registry;
  fill_registry(registry, 1);
  expect_golden("prometheus.txt", prometheus_text(registry));
}

TEST(ObsGolden, FederatedJsonAndPrometheus) {
  std::map<std::string, RegistrySnapshot> by_site;
  by_site["theta"] = snapshot_of(1, 10.0);
  by_site["odd \"site\"\\"] = snapshot_of(3, 12.0);
  RegistrySnapshot sparse;
  sparse.vtime_s = 11.0;
  sparse.counters["ops.put"] = 5;
  sparse.gauges["phase"] = GaugeSnapshot{9.0, 0};
  by_site["sparse"] = sparse;
  expect_golden("federated.json", federated_metrics_json(by_site));
  expect_golden("federated_prometheus.txt",
                federated_prometheus_text(by_site));
}

TEST(ObsGolden, SloRenderers) {
  SloReport report;
  SloVerdict pass;
  pass.objective = SloObjective{"demo.get.p99", "demo.get", "p99", 0.005, 8};
  pass.status = SloStatus::kPass;
  pass.observed_s = 0.0031;
  pass.samples = 120;
  report.verdicts.push_back(pass);
  SloVerdict breach;
  breach.objective =
      SloObjective{"odd \"slo\"\\name", "demo.put", "p999", 0.25, 1};
  breach.status = SloStatus::kBreach;
  breach.observed_s = 1.75;
  breach.samples = 9;
  report.verdicts.push_back(breach);
  SloVerdict scarce;
  scarce.objective = SloObjective{"demo.evict.p50", "demo.evict", "p50",
                                  2e-5, 100};
  scarce.status = SloStatus::kInsufficientData;
  scarce.observed_s = 7e-6;
  scarce.samples = 3;
  report.verdicts.push_back(scarce);
  expect_golden("slo.json", slo_report_json(report));
  expect_golden("slo_prometheus.txt", slo_prometheus_text(report));
  expect_golden("slo_table.txt", report.table());
}

TEST(ObsGolden, CriticalPathJsonAndTable) {
  const CriticalPath paths = CriticalPath::from_spans(fixed_spans());
  expect_golden("critical.json", CriticalPath::json(paths.reports()));
  expect_golden("critical_table.txt", CriticalPath::table(paths.reports()));
}

TEST(ObsGolden, ProfileFoldedTableAndTopNodes) {
  const Profile profile = Profile::from_spans(fixed_spans());
  expect_golden("profile_folded_vtime.txt", profile.folded(true));
  expect_golden("profile_folded_wall.txt", profile.folded(false));
  expect_golden("profile_table.txt", profile.table());
  std::string top;
  char line[256];
  for (const ProfileEntry& e : profile.top_nodes(6)) {
    std::snprintf(line, sizeof(line), "%s %llu %.17g %.17g %.17g %.17g\n",
                  e.path.c_str(), static_cast<unsigned long long>(e.count),
                  e.total_vtime_s, e.self_vtime_s, e.total_wall_s,
                  e.self_wall_s);
    top += line;
  }
  expect_golden("profile_top_nodes.txt", top);
}

TEST(ObsGolden, PerfettoTraceJson) {
  expect_golden("perfetto.json", perfetto_trace_json(fixed_spans()));
}

TEST(ObsGolden, FlightRecorderDumpJson) {
  FlightRecorder::Snapshot snap;
  snap.reason = "slo-breach: odd \"slo\"\n";
  snap.wall_s = 1.5;
  snap.vtime_s = 42.25;
  snap.spans = fixed_spans();
  expect_golden("flight.json", FlightRecorder::dump_json(snap));
}

TEST(ObsGolden, BenchArtifactJson) {
  BenchArtifact artifact;
  artifact.bench = "golden\tbench";
  artifact.seed = 1234;
  artifact.git_rev = "0123abcd";
  SeriesStats vt;
  vt.count = 10;
  vt.mean_s = 0.5;
  vt.p50_s = 0.4;
  vt.p99_s = 0.9;
  vt.p999_s = 0.95;
  vt.min_s = 0.1;
  vt.max_s = 1.0;
  vt.sum_s = 5.0;
  SeriesAttribution attr;
  attr.trace_id = "00000000000000010000000000000002";
  attr.span_id = 10;
  attr.sample_s = 1.0;
  attr.attributed_s = 1.0;
  attr.segments.push_back(SegmentShare{"wire-transfer", 0.6, 3});
  attr.segments.push_back(SegmentShare{"client", 0.4, 1});
  vt.attribution = attr;
  artifact.series["cell.vtime"] = vt;
  SeriesStats wall = vt;
  wall.attribution.reset();
  wall.kind = "wall";
  wall.units = "ratio";
  wall.mean_s = 1.0 / 3.0;
  artifact.series["op\nname\x01"] = wall;
  SloVerdict slo;
  slo.objective = {"cell.p999", "cell.vtime", "p999", 1.0, 8};
  slo.status = SloStatus::kPass;
  slo.observed_s = 0.95;
  slo.samples = 10;
  artifact.slos.push_back(slo);
  slo.objective.name = "cell.p50";
  slo.objective.percentile = "p50";
  slo.status = SloStatus::kInsufficientData;
  artifact.slos.push_back(slo);
  artifact.profile_top = Profile::from_spans(fixed_spans()).top_nodes(3);
  expect_golden("bench_artifact.json", bench_artifact_json(artifact));
}

TEST(ObsGolden, BlessedBaselinesRoundTripByteForByte) {
  const std::filesystem::path dir =
      std::filesystem::path(PS_SOURCE_DIR) / "results" / "baselines";
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    const std::string text = read_file(entry.path());
    std::string error;
    const auto parsed = parse_bench_artifact(text, &error);
    ASSERT_TRUE(parsed.has_value()) << file << ": " << error;
    EXPECT_EQ(bench_artifact_json(*parsed), text) << file;
    ++checked;
  }
  EXPECT_GE(checked, 8u);
}

}  // namespace
}  // namespace ps::obs
