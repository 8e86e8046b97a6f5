#include "obs/critical.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/text.hpp"

namespace ps::obs {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

std::string segment_kind(const SpanRecord& span) {
  if (!span.kind.empty()) return span.kind;
  // Name-based fallback for spans recorded by code that predates (or never
  // adopted) explicit kinds.
  const std::string& n = span.name;
  if (starts_with(n, "connector.") || starts_with(n, "endpoint.") ||
      starts_with(n, "relay.") || starts_with(n, "rpc.")) {
    return "wire-transfer";
  }
  if (n.find("deserialize") != std::string::npos ||
      n.find("serialize") != std::string::npos) {
    return "serde";
  }
  if (n == "swarm.get") return "wire-transfer";
  if (starts_with(n, "swarm.repair")) return "swarm-repair";
  if (starts_with(n, "swarm.")) return "swarm-fetch";
  if (starts_with(n, "store.cache")) return "cache-probe";
  if (n == "stream.poll") return "broker-poll";
  if (n == "async.executor.queue") return "executor-queue";
  if (n.find("dispatch") != std::string::npos) return "dispatch";
  return "other";
}

CriticalPath CriticalPath::from_spans(std::vector<SpanRecord> spans) {
  CriticalPath cp;
  cp.spans_ = std::move(spans);
  cp.index_ = SpanIndex(cp.spans_);
  // Children sorted by start time (span id tie-breaks for determinism) so
  // the interval sweep visits them in causal order.
  for (auto& [key, kids] : cp.index_.children) {
    std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
      const SpanRecord& sa = cp.spans_[a];
      const SpanRecord& sb = cp.spans_[b];
      if (sa.vtime_start != sb.vtime_start) {
        return sa.vtime_start < sb.vtime_start;
      }
      return sa.ctx.span_id < sb.ctx.span_id;
    });
  }
  // A root is a span whose parent is absent: parent id 0 or a parent span
  // that already rolled out of the buffer. Spans outside any trace have no
  // root to explain.
  for (std::size_t i = 0; i < cp.spans_.size(); ++i) {
    const TraceContext& ctx = cp.spans_[i].ctx;
    if (!ctx.valid()) continue;
    if (ctx.parent_span_id != 0 &&
        cp.index_.by_id.contains(SpanIndex::key(ctx, ctx.parent_span_id))) {
      continue;
    }
    cp.reports_.push_back(cp.decompose(i));
  }
  std::sort(cp.reports_.begin(), cp.reports_.end(),
            [](const CriticalPathReport& a, const CriticalPathReport& b) {
              if (a.vtime_s != b.vtime_s) return a.vtime_s > b.vtime_s;
              return a.root_span_id < b.root_span_id;
            });
  return cp;
}

CriticalPath CriticalPath::from_recorder(const TraceRecorder& recorder) {
  return from_spans(recorder.spans());
}

std::vector<CriticalPathReport> CriticalPath::top(std::size_t n) const {
  if (n >= reports_.size()) return reports_;
  return {reports_.begin(),
          reports_.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::optional<CriticalPathReport> CriticalPath::for_span(
    std::uint64_t trace_hi, std::uint64_t trace_lo, std::uint64_t span_id,
    bool require_root) const {
  const auto it = index_.by_id.find({trace_hi, trace_lo, span_id});
  if (it == index_.by_id.end()) return std::nullopt;
  if (require_root && spans_[it->second].ctx.parent_span_id != 0) {
    return std::nullopt;
  }
  return decompose(it->second);
}

CriticalPathReport CriticalPath::decompose(std::size_t root_idx) const {
  const SpanRecord& root = spans_[root_idx];
  CriticalPathReport report;
  report.trace_id = root.ctx.trace_id_hex();
  report.root_span_id = root.ctx.span_id;
  report.root_name = root.name;
  report.vtime_s = root.vtime_end - root.vtime_start;
  report.wall_s = root.wall_end - root.wall_start;
  if (report.vtime_s < 0.0) report.vtime_s = 0.0;
  if (report.wall_s < 0.0) report.wall_s = 0.0;

  std::map<std::string, SegmentShare> acc;
  attribute(root_idx, root.vtime_start, root.vtime_end, acc,
            report.span_count);
  report.segments.reserve(acc.size());
  for (auto& [segment, share] : acc) {
    report.attributed_s += share.vtime_s;
    report.segments.push_back(std::move(share));
  }
  std::sort(report.segments.begin(), report.segments.end(),
            [](const SegmentShare& a, const SegmentShare& b) {
              if (a.vtime_s != b.vtime_s) return a.vtime_s > b.vtime_s;
              return a.segment < b.segment;
            });
  return report;
}

void CriticalPath::attribute(std::size_t idx, double lo, double hi,
                             std::map<std::string, SegmentShare>& acc,
                             std::size_t& count) const {
  ++count;
  const SpanRecord& span = spans_[idx];
  const std::string kind = segment_kind(span);
  SegmentShare& own = acc[kind];
  if (own.segment.empty()) own.segment = kind;
  ++own.spans;

  const auto kids =
      index_.children.find(SpanIndex::key(span.ctx, span.ctx.span_id));
  double cursor = lo;
  if (kids != index_.children.end()) {
    for (const std::size_t child : kids->second) {
      const SpanRecord& c = spans_[child];
      const double clo = std::max(c.vtime_start, cursor);
      const double chi = std::min(c.vtime_end, hi);
      // Entirely behind the cursor (overlapped by an earlier sibling) or
      // past the window: nothing left to attribute to this subtree.
      if (chi < clo) continue;
      if (clo > cursor) {
        // The gap before this child is the span's own self-time.
        acc[kind].vtime_s += clo - cursor;
      }
      attribute(child, clo, chi, acc, count);
      cursor = chi;
    }
  }
  if (hi > cursor) acc[kind].vtime_s += hi - cursor;
}

std::string CriticalPath::table(
    const std::vector<CriticalPathReport>& reports) {
  std::string out;
  char line[256];
  for (const CriticalPathReport& r : reports) {
    std::snprintf(line, sizeof(line),
                  "%s  %s  vtime %.6fs  wall %.6fs  (%zu spans)\n",
                  r.trace_id.c_str(), r.root_name.c_str(), r.vtime_s,
                  r.wall_s, r.span_count);
    out += line;
    for (const SegmentShare& s : r.segments) {
      const double pct =
          r.vtime_s > 0.0 ? 100.0 * s.vtime_s / r.vtime_s : 0.0;
      std::snprintf(line, sizeof(line),
                    "  %-16s %12.6fs  %5.1f%%  %6llu spans\n",
                    s.segment.c_str(), s.vtime_s, pct,
                    static_cast<unsigned long long>(s.spans));
      out += line;
    }
  }
  return out;
}

std::string CriticalPath::json(
    const std::vector<CriticalPathReport>& reports) {
  std::string out = "{\"critical_paths\":[";
  bool first = true;
  for (const CriticalPathReport& r : reports) {
    if (!first) out += ",";
    first = false;
    out += "\n {\"trace_id\":\"" + r.trace_id + "\"";
    out += ",\"root\":\"";
    json_escape_into(out, r.root_name);
    out += "\",\"root_span_id\":" + std::to_string(r.root_span_id);
    out += ",\"vtime_s\":" + fmt_double(r.vtime_s);
    out += ",\"wall_s\":" + fmt_double(r.wall_s);
    out += ",\"attributed_s\":" + fmt_double(r.attributed_s);
    out += ",\"span_count\":" + std::to_string(r.span_count);
    out += ",\"segments\":";
    append_segments_json(out, r.segments);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

void append_segments_json(std::string& out,
                          const std::vector<SegmentShare>& segments) {
  out += "[";
  bool first = true;
  for (const SegmentShare& s : segments) {
    if (!first) out += ",";
    first = false;
    out += "{\"segment\":\"";
    json_escape_into(out, s.segment);
    out += "\",\"vtime_s\":" + fmt_double(s.vtime_s);
    out += ",\"spans\":" + std::to_string(s.spans) + "}";
  }
  out += "]";
}

}  // namespace ps::obs
