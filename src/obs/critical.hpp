// Critical-path attribution over TraceRecorder span trees.
//
// A trace is a tree of SpanRecords stitched by (trace id, parent_span_id)
// — the same parentage Profile uses — covering a causal chain like
// store.proxy -> connector op -> endpoint/relay forward -> faas dispatch ->
// remote resolve, including async spans whose parent is the submitting
// span. CriticalPath decomposes a root span's end-to-end virtual time into
// named segments by an exact interval sweep: walking each span's children
// in vtime order, every child's (clipped, non-overlapping) window is
// attributed recursively, and the gaps between children — the span's own
// self-time — are credited to the span's segment kind. Segment sums
// therefore reconstruct the end-to-end latency exactly (modulo float
// addition), which is what lets `psctl bench check` assert that a series'
// attribution explains its p999 exemplar to within 5%.
//
// Segment taxonomy (SpanRecord.kind, with a span-name fallback here):
//   executor-queue  time queued behind the AsyncExecutor / open-loop sched
//   wire-transfer   connector ops, endpoint/relay/rpc forwarding
//   serde           value (de)serialization in the store
//   swarm-fetch     swarm chunk discovery + first-attempt chunk waves
//   swarm-repair    swarm re-requests after corrupt/missing/slow replicas
//   broker-poll     stream subscription polling
//   cache-probe     store cache lookups
//   dispatch        faas/stream dispatch fan-out
//   client          client-side time in the load fleet's root spans
//   other           anything untagged and unclassifiable
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace ps::obs {

/// The segment a span's self-time belongs to: its explicit kind when set,
/// else a name-prefix classification, else "other".
std::string segment_kind(const SpanRecord& span);

struct SegmentShare {
  std::string segment;
  double vtime_s = 0.0;    // self-time credited to this segment
  std::uint64_t spans = 0; // spans whose self-time landed here
};

/// `[{"segment":..,"vtime_s":..,"spans":..},...]` — the segment list both
/// CriticalPath::json() and bench artifacts embed.
void append_segments_json(std::string& out,
                          const std::vector<SegmentShare>& segments);

/// One decomposed root: where its end-to-end window went.
struct CriticalPathReport {
  std::string trace_id;    // 32 hex digits
  std::uint64_t root_span_id = 0;
  std::string root_name;
  double vtime_s = 0.0;      // root's end-to-end virtual window
  double wall_s = 0.0;       // root's wall window (context, not decomposed)
  double attributed_s = 0.0; // sum over segments; == vtime_s by construction
  std::size_t span_count = 0;
  std::vector<SegmentShare> segments;  // largest share first
};

class CriticalPath {
 public:
  static CriticalPath from_spans(std::vector<SpanRecord> spans);
  static CriticalPath from_recorder(const TraceRecorder& recorder);

  /// One report per trace root, slowest (largest vtime window) first.
  const std::vector<CriticalPathReport>& reports() const { return reports_; }
  std::vector<CriticalPathReport> top(std::size_t n) const;

  /// Decomposes the subtree rooted at one specific span. When
  /// `require_root` the span must be a trace root (parent_span_id == 0) —
  /// the exemplar-attribution path uses this so the decomposed window is
  /// the whole measured sample, not an inner hop. nullopt when the span is
  /// not held (e.g. already rolled out of the recorder).
  std::optional<CriticalPathReport> for_span(std::uint64_t trace_hi,
                                             std::uint64_t trace_lo,
                                             std::uint64_t span_id,
                                             bool require_root = false) const;

  /// Columnar rendering for `psctl trace critical`.
  static std::string table(const std::vector<CriticalPathReport>& reports);
  /// {"critical_paths":[{trace_id, root, ..., segments:[...]}, ...]}.
  static std::string json(const std::vector<CriticalPathReport>& reports);

 private:
  CriticalPathReport decompose(std::size_t root_idx) const;
  void attribute(std::size_t idx, double lo, double hi,
                 std::map<std::string, SegmentShare>& acc,
                 std::size_t& count) const;

  std::vector<SpanRecord> spans_;
  SpanIndex index_;  // children sorted by vtime start
  std::vector<CriticalPathReport> reports_;
};

}  // namespace ps::obs
