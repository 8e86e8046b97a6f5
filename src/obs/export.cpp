#include "obs/export.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/text.hpp"
#include "obs/trace.hpp"

namespace ps::obs {

namespace {

// Microseconds with nanosecond resolution — the unit of trace-event ts/dur.
std::string fmt_us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

void append_metadata(std::string& out, bool& first, int pid, int tid,
                     const char* what, const std::string& label) {
  if (!first) out += ",\n";
  first = false;
  out += "{\"ph\":\"M\",\"pid\":";
  out += std::to_string(pid);
  if (tid >= 0) {
    out += ",\"tid\":";
    out += std::to_string(tid);
  }
  out += ",\"name\":\"";
  out += what;
  out += "\",\"args\":{\"name\":\"";
  json_escape_into(out, label);
  out += "\"}}";
}

void append_slice(std::string& out, bool& first, const SpanRecord& span,
                  int pid, int tid, double start_s, double end_s) {
  if (!first) out += ",\n";
  first = false;
  double dur = end_s - start_s;
  if (dur < 0.0) dur = 0.0;
  out += "{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"";
  json_escape_into(out, span.name);
  out += "\",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(tid);
  out += ",\"ts\":";
  out += fmt_us(start_s);
  out += ",\"dur\":";
  out += fmt_us(dur);
  out += ",\"args\":{\"trace_id\":\"";
  out += span.ctx.trace_id_hex();
  out += "\",\"span_id\":";
  out += std::to_string(span.ctx.span_id);
  out += ",\"parent_span_id\":";
  out += std::to_string(span.ctx.parent_span_id);
  if (!span.kind.empty()) {
    out += ",\"kind\":\"";
    json_escape_into(out, span.kind);
    out += "\"";
  }
  out += ",\"process\":\"";
  json_escape_into(out, span.process);
  out += "\",\"host\":\"";
  json_escape_into(out, span.host);
  out += "\",\"site\":\"";
  json_escape_into(out, span.site);
  if (!span.subject.empty()) {
    out += "\",\"subject\":\"";
    json_escape_into(out, span.subject);
  }
  out += "\"}}";
}

}  // namespace

std::string prom_label_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string perfetto_trace_json(const TraceRecorder& recorder) {
  return perfetto_trace_json(recorder.spans());
}

std::string perfetto_trace_json(const std::vector<SpanRecord>& spans) {
  // Sites become Perfetto processes; each gets a virtual-time pid (1-based)
  // and a wall-clock pid offset by 1000. Simulated processes become threads.
  std::map<std::string, int> site_pid;
  std::map<std::pair<std::string, std::string>, int> actor_tid;
  for (const SpanRecord& span : spans) {
    site_pid.emplace(span.site, 0);
    actor_tid.emplace(std::make_pair(span.site, span.process), 0);
  }
  int next_pid = 1;
  for (auto& [site, pid] : site_pid) pid = next_pid++;
  int next_tid = 1;
  for (auto& [actor, tid] : actor_tid) tid = next_tid++;

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [site, pid] : site_pid) {
    append_metadata(out, first, pid, -1, "process_name", site + " [vtime]");
    append_metadata(out, first, pid + 1000, -1, "process_name",
                    site + " [wall]");
  }
  for (const auto& [actor, tid] : actor_tid) {
    const int pid = site_pid[actor.first];
    append_metadata(out, first, pid, tid, "thread_name", actor.second);
    append_metadata(out, first, pid + 1000, tid, "thread_name", actor.second);
  }
  for (const SpanRecord& span : spans) {
    const int pid = site_pid[span.site];
    const int tid = actor_tid[std::make_pair(span.site, span.process)];
    append_slice(out, first, span, pid, tid, span.vtime_start, span.vtime_end);
    append_slice(out, first, span, pid + 1000, tid, span.wall_start,
                 span.wall_end);
  }
  out += "\n]}\n";
  return out;
}

bool write_perfetto_trace(const std::string& path) {
  return write_text_file(path, perfetto_trace_json(TraceRecorder::global()));
}

namespace {

/// `{a,b}` over the non-empty label lists; empty when both are.
std::string labels(const std::string& a, const std::string& b) {
  if (a.empty() && b.empty()) return "";
  return "{" + a + (a.empty() || b.empty() ? "" : ",") + b + "}";
}

void append_family(std::string& out, const std::string& prom,
                   const std::string& help, const char* type) {
  out += "# HELP " + prom + " " + help + "\n";
  out += "# TYPE " + prom + " " + type + "\n";
}

/// Registry snapshots to expose, each with the label list its samples carry
/// (empty for the local registry, `site="..."` per federated site).
using Sources = std::vector<std::pair<std::string, const RegistrySnapshot*>>;

/// Family-major exposition: each family's # HELP/# TYPE once (a family must
/// not repeat), then one sample set per source holding the metric. `scope`
/// ends every HELP text. A non-null `aggregate` names each gauge's
/// GaugeAgg hint and adds its hint-honoring site="aggregate" sample — the
/// one cross-site combination a scraper without the hint cannot compute.
void append_exposition(std::string& out, const Sources& sources,
                       const std::string& scope,
                       const RegistrySnapshot* aggregate) {
  std::map<std::string, GaugeAgg> gauge_names;
  std::set<std::string> counter_names;
  std::set<std::string> histogram_names;
  for (const auto& [label, snap] : sources) {
    for (const auto& [name, value] : snap->counters) counter_names.insert(name);
    for (const auto& [name, gauge] : snap->gauges) {
      gauge_names[name] = gauge.agg_hint();
    }
    for (const auto& [name, h] : snap->histograms) histogram_names.insert(name);
  }

  // Conformance notes (also checked by tests/obs_test.cpp): every metric
  // family gets `# HELP` then `# TYPE`, counters carry the `_total` suffix,
  // and histograms expose cumulative `_bucket` counts ending in `+Inf`.
  for (const std::string& name : counter_names) {
    const std::string prom = prom_name(name) + "_total";
    append_family(out, prom, "Monotonic count of " + name + " events" +
                                 scope + ".", "counter");
    for (const auto& [label, snap] : sources) {
      const auto it = snap->counters.find(name);
      if (it == snap->counters.end()) continue;
      out += prom + labels(label, "") + " " + std::to_string(it->second) +
             "\n";
    }
  }

  for (const auto& [name, agg] : gauge_names) {
    const std::string prom = prom_name(name);
    const std::string hint =
        aggregate == nullptr ? "" : " (agg=" + to_string(agg) + ")";
    append_family(out, prom,
                  "Instantaneous value of " + name + scope + hint + ".",
                  "gauge");
    for (const auto& [label, snap] : sources) {
      const auto it = snap->gauges.find(name);
      if (it == snap->gauges.end()) continue;
      out += prom + labels(label, "") + " " + fmt_double(it->second.value) +
             "\n";
    }
    if (aggregate == nullptr) continue;
    const auto it = aggregate->gauges.find(name);
    if (it != aggregate->gauges.end()) {
      out += prom + "{site=\"aggregate\"} " + fmt_double(it->second.value) +
             "\n";
    }
  }

  const auto& bounds = Histogram::bounds();
  for (const std::string& name : histogram_names) {
    const std::string prom = prom_name(name) + "_seconds";
    append_family(out, prom, "Latency distribution of " + name +
                                 " in seconds" + scope + ".", "histogram");
    for (const auto& [label, snap] : sources) {
      const auto it = snap->histograms.find(name);
      if (it == snap->histograms.end()) continue;
      const HistogramSnapshot& h = it->second;
      // Buckets with a trace-linked exemplar get the OpenMetrics-style
      // annotation after the cumulative count.
      std::map<std::uint32_t, const ExemplarSnapshot*> exemplar_by_bucket;
      for (const ExemplarSnapshot& ex : h.exemplars) {
        exemplar_by_bucket[ex.bucket] = &ex;
      }
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.buckets.size() && i < bounds.size();
           ++i) {
        if (h.buckets[i] == 0) continue;
        cumulative += h.buckets[i];
        out += prom + "_bucket" +
               labels(label, "le=\"" + fmt_double(bounds[i]) + "\"") + " " +
               std::to_string(cumulative);
        const auto ex = exemplar_by_bucket.find(static_cast<std::uint32_t>(i));
        if (ex != exemplar_by_bucket.end()) {
          const ExemplarSnapshot& witness = *ex->second;
          out += " # {trace_id=\"" +
                 prom_label_escape(witness.trace_id_hex()) + "\",span_id=\"" +
                 std::to_string(witness.span_id) + "\"} " +
                 fmt_double(witness.value_s) + " " +
                 fmt_double(witness.vtime_s);
        }
        out += "\n";
      }
      out += prom + "_bucket" + labels(label, "le=\"+Inf\"") + " " +
             std::to_string(h.count) + "\n";
      out += prom + "_sum" + labels(label, "") + " " + fmt_double(h.sum_s()) +
             "\n";
      out += prom + "_count" + labels(label, "") + " " +
             std::to_string(h.count) + "\n";
    }

    // Companion summary family: precomputed tail quantiles (p50/p99/p999)
    // so scrapers and SLO dashboards need not reconstruct percentiles from
    // the log-spaced buckets. A distinct family name keeps both expositions
    // conformant (one # TYPE per family).
    const std::string summary = prom_name(name) + "_quantiles_seconds";
    append_family(out, summary, "Latency quantiles of " + name +
                                    " in seconds" + scope + ".", "summary");
    for (const auto& [label, snap] : sources) {
      const auto it = snap->histograms.find(name);
      if (it == snap->histograms.end()) continue;
      const HistogramSnapshot& h = it->second;
      for (const double q : {0.5, 0.99, 0.999}) {
        out += summary +
               labels(label, "quantile=\"" + fmt_double(q) + "\"") + " " +
               fmt_double(h.percentile(q * 100.0)) + "\n";
      }
      out += summary + "_sum" + labels(label, "") + " " +
             fmt_double(h.sum_s()) + "\n";
      out += summary + "_count" + labels(label, "") + " " +
             std::to_string(h.count) + "\n";
    }
  }
}

}  // namespace

std::string prometheus_text(const MetricsRegistry& registry) {
  const RegistrySnapshot snap = registry.take_snapshot(0.0);
  std::string out;
  append_exposition(out, {{"", &snap}}, "", nullptr);
  return out;
}

std::string federated_prometheus_text(
    const std::map<std::string, RegistrySnapshot>& by_site) {
  Sources sources;
  std::vector<RegistrySnapshot> all;
  for (const auto& [site, snap] : by_site) {
    sources.emplace_back("site=\"" + prom_label_escape(site) + "\"", &snap);
    all.push_back(snap);
  }
  const RegistrySnapshot aggregate = merge_registry_snapshots(all);
  std::string out;
  append_exposition(out, sources, " per site", &aggregate);
  out += "# EOF\n";
  return out;
}

}  // namespace ps::obs
