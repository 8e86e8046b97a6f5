#include "swarm/scheduler.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/hash.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sim/vtime.hpp"

namespace ps::swarm {

namespace {

/// Scheduler series with fixed names.
struct Series {
  obs::SiteCounter source_errors{"swarm.source.errors"};
  obs::SiteCounter source_timeouts{"swarm.source.timeouts"};
  obs::SiteCounter replicas_absent{"swarm.replicas.absent"};
  obs::SiteCounter fetched{"swarm.chunks.fetched"};
  obs::SiteCounter verified{"swarm.chunks.verified"};
  obs::SiteCounter accepted_late{"swarm.chunks.accepted_late"};
  obs::SiteCounter corrupt{"swarm.chunks.corrupt"};
  obs::SiteCounter missing{"swarm.chunks.missing"};
  obs::SiteCounter unrecoverable{"swarm.chunks.unrecoverable"};
  obs::SiteCounter repairs{"swarm.repairs"};
  obs::SiteHistogram chunk_vtime{"swarm.chunk.vtime"};
};

const Series& series() {
  static const Series instance;
  return instance;
}

void count(const obs::SiteCounter& counter, std::uint64_t n = 1) {
  if (obs::enabled()) counter.get().inc(n);
}

/// Optimistic service-rate prior (1 GB/s) for sources with no measured
/// wave yet. Assignment cost is start + rate * (queued + size); with a
/// zero rate the queue term vanishes and every first-wave chunk would
/// tie-break onto one backend, serializing the very transfer the swarm
/// exists to parallelize. A shared positive prior makes the first wave
/// load-balance; real per-source estimates take over from wave two.
constexpr double kUnknownRatePrior = 1e-9;

}  // namespace

ChunkScheduler::ChunkScheduler(const std::vector<Backend>& backends,
                               const Manifest& manifest,
                               const SwarmOptions& options,
                               core::AsyncExecutor& executor,
                               std::string subject)
    : backends_(backends),
      manifest_(manifest),
      options_(options),
      executor_(executor),
      subject_(std::move(subject)) {
  sources_.reserve(backends_.size());
  for (const Backend& backend : backends_) {
    sources_.emplace_back(backend.name);
    sources_.back().has.assign(manifest_.chunks.size(), false);
  }
  // Optimistic availability: the manifest's holder map is the truth until a
  // fetch contradicts it (then discover() probes the real replica map).
  for (std::size_t c = 0; c < manifest_.chunks.size(); ++c) {
    for (const std::uint32_t b : manifest_.chunks[c].holders) {
      if (b < sources_.size()) sources_[b].has[c] = true;
    }
  }
  chunks_.resize(manifest_.chunks.size());
}

bool ChunkScheduler::tried(const ChunkState& chunk,
                           std::uint32_t backend) const {
  return std::find(chunk.tried.begin(), chunk.tried.end(), backend) !=
         chunk.tried.end();
}

void ChunkScheduler::discover(double floor_vtime) {
  discovered_ = true;
  struct Probe {
    std::vector<std::size_t> chunk_idx;
    std::vector<core::Key> keys;
    std::vector<bool> present;
    double end_vtime = 0.0;
    bool failed = false;
  };
  std::vector<Probe> probes(backends_.size());
  for (std::size_t c = 0; c < manifest_.chunks.size(); ++c) {
    for (const std::uint32_t b : manifest_.chunks[c].holders) {
      probes[b].chunk_idx.push_back(c);
      probes[b].keys.push_back(chunk_key(manifest_.chunks[c].hash));
    }
  }
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (probes[b].keys.empty() || !sources_[b].alive) continue;
    {
      std::lock_guard lock(mu_);
      ++pending_;
    }
    executor_.submit([this, b, floor_vtime, &probes] {
      Probe& probe = probes[b];
      {
        // A probe exists because an anomaly triggered it; it cannot start
        // before that anomaly was known.
        sim::vmerge(floor_vtime);
        obs::SpanScope span("swarm.discover", subject_, "swarm-repair");
        try {
          probe.present = backends_[b].connector->exists_batch(probe.keys);
        } catch (...) {
          probe.failed = true;
        }
        probe.end_vtime = sim::vnow();
      }
      std::lock_guard lock(mu_);
      --pending_;
      done_cv_.notify_all();
    });
  }
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  // Discovery advances each source's pipeline frontier (its connection was
  // busy answering the probe) but never the caller's clock directly — the
  // resolve completes on accepted data, not on control traffic.
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    const Probe& probe = probes[b];
    if (probe.keys.empty() || !sources_[b].alive) continue;
    if (probe.failed) {
      sources_[b].alive = false;
      count(series().source_errors);
      continue;
    }
    for (std::size_t i = 0; i < probe.chunk_idx.size(); ++i) {
      sources_[b].has[probe.chunk_idx[i]] = probe.present[i];
      if (!probe.present[i]) count(series().replicas_absent);
    }
    sources_[b].frontier_vtime =
        std::max(sources_[b].frontier_vtime, probe.end_vtime);
  }
}

std::vector<std::vector<std::size_t>> ChunkScheduler::assign(
    std::vector<std::size_t>& remaining) {
  std::vector<std::vector<std::size_t>> assignment(backends_.size());
  std::vector<std::uint64_t> load(backends_.size(), 0);
  std::vector<std::size_t> deferred;
  for (const std::size_t c : remaining) {
    const ChunkRef& ref = manifest_.chunks[c];
    int best = -1;
    bool best_slow = true;
    double best_finish = std::numeric_limits<double>::infinity();
    for (const std::uint32_t b : ref.holders) {
      const SourceState& src = sources_[b];
      if (!src.alive || !src.has[c] || tried(chunks_[c], b)) continue;
      if (assignment[b].size() >= options_.pipeline_depth) continue;
      // Prefer any non-slow holder over a slow one (a slow source is used
      // only as the replica of last resort); among peers pick the least
      // projected finish, ties to the lower backend index.
      const double start =
          std::max(src.frontier_vtime, chunks_[c].floor_vtime);
      const double rate =
          src.est_s_per_byte > 0.0 ? src.est_s_per_byte : kUnknownRatePrior;
      const double finish =
          start + rate * static_cast<double>(load[b] + ref.size);
      const bool better =
          best == -1 || (best_slow && !src.slow) ||
          (best_slow == src.slow &&
           (finish < best_finish ||
            (finish == best_finish && static_cast<int>(b) < best)));
      if (better) {
        best = static_cast<int>(b);
        best_slow = src.slow;
        best_finish = finish;
      }
    }
    if (best >= 0) {
      assignment[static_cast<std::size_t>(best)].push_back(c);
      load[static_cast<std::size_t>(best)] += ref.size;
      continue;
    }
    // No slot this wave: either every viable replica is at pipeline
    // capacity (retry next wave) or none is left at all (unrecoverable).
    bool capacity_limited = false;
    for (const std::uint32_t b : ref.holders) {
      const SourceState& src = sources_[b];
      if (src.alive && src.has[c] && !tried(chunks_[c], b)) {
        capacity_limited = true;
        break;
      }
    }
    if (capacity_limited) {
      deferred.push_back(c);
    } else {
      unrecoverable_ = true;
      count(series().unrecoverable);
    }
  }
  remaining = std::move(deferred);
  return assignment;
}

void ChunkScheduler::run_wave(
    const std::vector<std::vector<std::size_t>>& assignment, Bytes& buffer,
    std::vector<std::size_t>& repairs) {
  std::vector<WaveSlot> slots(backends_.size());
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (assignment[b].empty()) continue;
    WaveSlot& slot = slots[b];
    slot.chunks = assignment[b];
    bool repair_job = false;
    double floor = sources_[b].frontier_vtime;
    for (const std::size_t c : slot.chunks) {
      slot.bytes += manifest_.chunks[c].size;
      floor = std::max(floor, chunks_[c].floor_vtime);
      repair_job = repair_job || !chunks_[c].tried.empty();
    }
    {
      std::lock_guard lock(mu_);
      ++pending_;
    }
    executor_.submit([this, b, floor, repair_job, &slots, &buffer] {
      WaveSlot& slot = slots[b];
      {
        // A wave continues the backend's pipeline: it cannot start before
        // the previous wave's response drained, nor before the re-request
        // decision (floor) that triggered it.
        sim::vmerge(floor);
        slot.issue_vtime = sim::vnow();
        obs::SpanScope span(repair_job ? "swarm.repair.fetch" : "swarm.fetch",
                            subject_,
                            repair_job ? "swarm-repair" : "swarm-fetch");
        std::vector<core::Key> keys;
        keys.reserve(slot.chunks.size());
        for (const std::size_t c : slot.chunks) {
          keys.push_back(chunk_key(manifest_.chunks[c].hash));
        }
        std::vector<std::optional<Bytes>> values;
        try {
          // Completion-driven fetch: kv backends issue the batch onto their
          // pipelined channel and the wave merges that request's own
          // completion vtime (get() == wait + copy). Connectors without a
          // native override fall back to the executor adapter — either way
          // the wave's clock lands on the batch's wire completion.
          values = backends_[b].connector->get_batch_async(keys).get();
        } catch (...) {
          slot.failed = true;
        }
        slot.status.assign(slot.chunks.size(), ChunkStatus::kMissing);
        if (!slot.failed) {
          for (std::size_t i = 0; i < slot.chunks.size(); ++i) {
            const ChunkRef& ref = manifest_.chunks[slot.chunks[i]];
            if (!values[i].has_value()) continue;
            // Verification is real compute on the resolve path.
            if (options_.hash_Bps > 0) {
              sim::vadvance(static_cast<double>(values[i]->size()) /
                            options_.hash_Bps);
            }
            if (values[i]->size() != ref.size ||
                Sha256::hex_digest(*values[i]) != ref.hash) {
              slot.status[i] = ChunkStatus::kCorrupt;
              continue;
            }
            slot.status[i] = ChunkStatus::kOk;
            // Disjoint manifest offsets: concurrent completions reassemble
            // into the shared buffer without locking.
            std::memcpy(buffer.data() + ref.offset, values[i]->data(),
                        ref.size);
          }
        }
        slot.end_vtime = sim::vnow();
      }
      std::lock_guard lock(mu_);
      --pending_;
      done_cv_.notify_all();
    });
  }
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }

  // Deadline reference: the best per-byte rate any backend demonstrated in
  // this wave. With fewer than two healthy participants there is nothing to
  // compare against (and nowhere to route around to), so no timeouts.
  double ref_per_byte = std::numeric_limits<double>::infinity();
  std::size_t active = 0;
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    const WaveSlot& slot = slots[b];
    if (slot.chunks.empty() || slot.failed) continue;
    ++active;
    if (slot.bytes > 0) {
      ref_per_byte =
          std::min(ref_per_byte, (slot.end_vtime - slot.issue_vtime) /
                                     static_cast<double>(slot.bytes));
    }
  }

  // Post-mortem in fixed backend order: acceptance, repair and timeout
  // decisions are a pure function of virtual times, so the outcome is
  // deterministic however the wall-clock scheduling interleaved.
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    WaveSlot& slot = slots[b];
    if (slot.chunks.empty()) continue;
    SourceState& src = sources_[b];
    count(series().fetched, slot.chunks.size());

    if (slot.failed) {
      src.alive = false;
      count(series().source_errors);
      for (const std::size_t c : slot.chunks) {
        ChunkState& chunk = chunks_[c];
        chunk.tried.push_back(static_cast<std::uint32_t>(b));
        chunk.floor_vtime = std::max(chunk.floor_vtime, slot.end_vtime);
        repairs.push_back(c);
        count(series().repairs);
      }
      continue;
    }

    const double duration = slot.end_vtime - slot.issue_vtime;
    const double per_byte =
        slot.bytes > 0 ? duration / static_cast<double>(slot.bytes) : 0.0;
    const double deadline =
        options_.slow_factor *
        std::max(ref_per_byte * static_cast<double>(slot.bytes),
                 options_.min_timeout_s);
    // A source already flagged slow only gets chunks as the replica of last
    // resort; re-flagging it would strand them, so accept what it sent.
    const bool timed_out = !src.slow && active >= 2 && duration > deadline;
    const double give_up = slot.issue_vtime + deadline;
    if (timed_out) {
      src.slow = true;
      count(series().source_timeouts);
      count(src.timeouts);
    }
    src.frontier_vtime = std::max(src.frontier_vtime, slot.end_vtime);
    if (!timed_out && !src.slow && slot.bytes > 0) {
      src.est_s_per_byte = src.est_s_per_byte == 0.0
                               ? per_byte
                               : 0.5 * src.est_s_per_byte + 0.5 * per_byte;
    }

    for (std::size_t i = 0; i < slot.chunks.size(); ++i) {
      const std::size_t c = slot.chunks[i];
      const ChunkRef& ref = manifest_.chunks[c];
      ChunkState& chunk = chunks_[c];
      chunk.tried.push_back(static_cast<std::uint32_t>(b));
      bool has_alternative = false;
      for (const std::uint32_t h : ref.holders) {
        if (h == b) continue;
        if (sources_[h].alive && sources_[h].has[c] && !tried(chunk, h)) {
          has_alternative = true;
          break;
        }
      }
      if (timed_out && has_alternative) {
        // Route around the slow source: discard even a verified chunk —
        // the client stopped waiting at the deadline, and accepting it
        // would merge the straggler's vtime into the resolve after all.
        chunk.floor_vtime = std::max(chunk.floor_vtime, give_up);
        repairs.push_back(c);
        count(series().repairs);
        continue;
      }
      switch (slot.status[i]) {
        case ChunkStatus::kOk:
          chunk.done = true;
          max_accept_vtime_ = std::max(max_accept_vtime_, slot.end_vtime);
          count(series().verified);
          if (timed_out) count(series().accepted_late);
          count(src.chunks);
          count(src.bytes, ref.size);
          if (obs::enabled()) {
            series().chunk_vtime.get().observe(
                per_byte * static_cast<double>(ref.size));
          }
          break;
        case ChunkStatus::kCorrupt:
        case ChunkStatus::kMissing: {
          count(slot.status[i] == ChunkStatus::kCorrupt ? series().corrupt
                                                          : series().missing);
          if (has_alternative) {
            // The failure was discovered when the response drained.
            chunk.floor_vtime = std::max(chunk.floor_vtime, slot.end_vtime);
            repairs.push_back(c);
            count(series().repairs);
          } else {
            unrecoverable_ = true;
            count(series().unrecoverable);
          }
          break;
        }
      }
    }
  }
}

std::optional<Bytes> ChunkScheduler::run() {
  Bytes buffer(manifest_.total_size, '\0');
  std::vector<std::size_t> remaining;
  remaining.reserve(manifest_.chunks.size());
  for (std::size_t c = 0; c < manifest_.chunks.size(); ++c) {
    remaining.push_back(c);
  }
  while (!remaining.empty() && !unrecoverable_) {
    const std::vector<std::vector<std::size_t>> assignment = assign(remaining);
    bool any = false;
    for (const auto& list : assignment) any = any || !list.empty();
    if (!any) break;  // assign() marked the stragglers unrecoverable
    std::vector<std::size_t> repairs;
    run_wave(assignment, buffer, repairs);
    if (!repairs.empty() && !discovered_) {
      // First anomaly: replace the optimistic holder map with probed truth
      // before deciding where the re-requests go. The probes cannot start
      // before the earliest moment any of this wave's anomalies was known.
      double floor = chunks_[repairs.front()].floor_vtime;
      for (const std::size_t c : repairs) {
        floor = std::min(floor, chunks_[c].floor_vtime);
      }
      discover(floor);
    }
    remaining.insert(remaining.end(), repairs.begin(), repairs.end());
    std::sort(remaining.begin(), remaining.end());
  }
  if (unrecoverable_) return std::nullopt;
  // The payload is whole only once its slowest accepted chunk landed.
  sim::vmerge(max_accept_vtime_);
  return buffer;
}

}  // namespace ps::swarm
