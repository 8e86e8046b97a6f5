#include "obs/slo.hpp"

#include <cstdio>
#include <iterator>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/text.hpp"

namespace ps::obs {

namespace {

/// Indexed by SloStatus; also its ps_slo_status gauge value.
constexpr const char* kSloStatusNames[] = {"pass", "breach",
                                           "insufficient_data"};

double percentile_rank(const std::string& percentile) {
  if (percentile == "p50") return 50.0;
  if (percentile == "p99") return 99.0;
  if (percentile == "p999") return 99.9;
  throw Error("SloRegistry: unknown percentile '" + percentile +
              "' (expected p50, p99, or p999)");
}

/// A breach freezes the flight recorder: the spans behind the offending
/// tail are preserved for the auto-dump even if tracing keeps running. One
/// snapshot, named after the first breach, covers the whole evaluation.
void freeze_on_breach(const SloReport& report, const std::string& reason) {
  for (const SloVerdict& v : report.verdicts) {
    if (v.status != SloStatus::kBreach) continue;
    FlightRecorder::global().snapshot(reason + v.objective.name);
    return;
  }
}

}  // namespace

bool valid_slo_percentile(const std::string& percentile) {
  for (const char* known : kSloPercentiles) {
    if (percentile == known) return true;
  }
  return false;
}

std::string to_string(SloStatus status) {
  return kSloStatusNames[static_cast<std::size_t>(status)];
}

std::optional<SloStatus> parse_slo_status(const std::string& text) {
  for (std::size_t i = 0; i < std::size(kSloStatusNames); ++i) {
    if (text == kSloStatusNames[i]) return static_cast<SloStatus>(i);
  }
  return std::nullopt;
}

std::size_t SloReport::breaches() const {
  std::size_t n = 0;
  for (const SloVerdict& v : verdicts) {
    if (v.status == SloStatus::kBreach) ++n;
  }
  return n;
}

std::size_t SloReport::insufficient() const {
  std::size_t n = 0;
  for (const SloVerdict& v : verdicts) {
    if (v.status == SloStatus::kInsufficientData) ++n;
  }
  return n;
}

std::string SloReport::table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %-6s %10s %10s %8s  %s\n",
                "objective", "tail", "observed", "target", "samples",
                "status");
  out += line;
  for (const SloVerdict& v : verdicts) {
    std::snprintf(line, sizeof(line), "%-34s %-6s %10s %10s %8llu  %s\n",
                  v.objective.name.c_str(), v.objective.percentile.c_str(),
                  fmt_latency(v.observed_s).c_str(),
                  fmt_latency(v.objective.threshold_s).c_str(),
                  static_cast<unsigned long long>(v.samples),
                  to_string(v.status).c_str());
    out += line;
  }
  return out;
}

void append_slo_json(std::string& out, const SloVerdict& verdict) {
  const SloObjective& objective = verdict.objective;
  out += "{\"name\":\"";
  json_escape_into(out, objective.name);
  out += "\",\"metric\":\"";
  json_escape_into(out, objective.metric);
  out += "\",\"percentile\":\"";
  json_escape_into(out, objective.percentile);
  out += "\",\"threshold_s\":" + fmt_double(objective.threshold_s);
  out += ",\"min_samples\":" + std::to_string(objective.min_samples);
  out += ",\"status\":\"" + to_string(verdict.status);
  out += "\",\"observed_s\":" + fmt_double(verdict.observed_s);
  out += ",\"samples\":" + std::to_string(verdict.samples) + "}";
}

std::string slo_report_json(const SloReport& report) {
  std::string out = "{\"slos\":[";
  bool first = true;
  for (const SloVerdict& v : report.verdicts) {
    if (!first) out += ",";
    first = false;
    out += "\n ";
    append_slo_json(out, v);
  }
  out += "\n],\"breaches\":" + std::to_string(report.breaches());
  out += ",\"passed\":" + std::string(report.passed() ? "1" : "0") + "}\n";
  return out;
}

std::string slo_prometheus_text(const SloReport& report) {
  std::string out;
  // One gauge family per verdict field, one sample per objective.
  const auto family = [&](const std::string& prom, const std::string& help,
                          auto value) {
    out += "# HELP " + prom + " " + help + "\n# TYPE " + prom + " gauge\n";
    for (const SloVerdict& v : report.verdicts) {
      out += prom + "{objective=\"" + prom_label_escape(v.objective.name) +
             "\"} " + value(v) + "\n";
    }
  };
  family("ps_slo_status",
         "SLO verdict per objective (0=pass, 1=breach, 2=insufficient_data).",
         [](const SloVerdict& v) {
           return std::to_string(static_cast<int>(v.status));
         });
  family("ps_slo_observed_seconds", "Observed quantile per objective.",
         [](const SloVerdict& v) { return fmt_double(v.observed_s); });
  family("ps_slo_threshold_seconds", "Declared bound per objective.",
         [](const SloVerdict& v) {
           return fmt_double(v.objective.threshold_s);
         });
  return out;
}

SloRegistry& SloRegistry::global() {
  static SloRegistry* registry = new SloRegistry();  // never destroyed
  return *registry;
}

void SloRegistry::declare(SloObjective objective) {
  if (objective.name.empty()) {
    throw Error("SloRegistry: objective name must be non-empty");
  }
  if (objective.metric.empty()) {
    throw Error("SloRegistry: objective '" + objective.name +
                "' needs a metric selector");
  }
  if (!valid_slo_percentile(objective.percentile)) {
    throw Error("SloRegistry: objective '" + objective.name +
                "' has unknown percentile '" + objective.percentile + "'");
  }
  if (!(objective.threshold_s > 0.0)) {
    throw Error("SloRegistry: objective '" + objective.name +
                "' needs a positive threshold");
  }
  if (objective.min_samples == 0) objective.min_samples = 1;
  std::lock_guard lock(mu_);
  for (SloObjective& existing : objectives_) {
    if (existing.name == objective.name) {
      existing = std::move(objective);
      return;
    }
  }
  objectives_.push_back(std::move(objective));
}

bool SloRegistry::remove(const std::string& name) {
  std::lock_guard lock(mu_);
  for (auto it = objectives_.begin(); it != objectives_.end(); ++it) {
    if (it->name == name) {
      objectives_.erase(it);
      return true;
    }
  }
  return false;
}

void SloRegistry::clear() {
  std::lock_guard lock(mu_);
  objectives_.clear();
}

std::vector<SloObjective> SloRegistry::objectives() const {
  std::lock_guard lock(mu_);
  return objectives_;
}

std::size_t SloRegistry::size() const {
  std::lock_guard lock(mu_);
  return objectives_.size();
}

SloReport SloRegistry::evaluate(const MetricsRegistry& registry) const {
  SloReport report;
  for (const SloObjective& objective : objectives()) {
    SloVerdict verdict;
    verdict.objective = objective;
    const Histogram* h = registry.find_histogram(objective.metric);
    if (h != nullptr) {
      verdict.samples = h->count();
      verdict.observed_s = h->percentile(percentile_rank(objective.percentile));
    }
    if (verdict.samples < objective.min_samples) {
      verdict.status = SloStatus::kInsufficientData;
    } else if (verdict.observed_s > objective.threshold_s) {
      verdict.status = SloStatus::kBreach;
    } else {
      verdict.status = SloStatus::kPass;
    }
    report.verdicts.push_back(std::move(verdict));
  }
  freeze_on_breach(report, "slo-breach: ");
  return report;
}

SloReport SloRegistry::evaluate() const {
  return evaluate(MetricsRegistry::global());
}

SloReport SloRegistry::evaluate_burn(const TelemetryWindows& windows) const {
  SloReport report;
  for (const SloObjective& objective : objectives()) {
    if (objective.burn_fast_window_s <= 0.0 ||
        objective.burn_slow_window_s <= 0.0) {
      continue;  // whole-run objective; evaluate() owns it
    }
    const RegistrySnapshot fast =
        windows.merged_last(objective.burn_fast_window_s);
    const RegistrySnapshot slow =
        windows.merged_last(objective.burn_slow_window_s);
    SloVerdict verdict;
    verdict.objective = objective;
    std::uint64_t slow_samples = 0;
    if (const auto it = fast.histograms.find(objective.metric);
        it != fast.histograms.end()) {
      verdict.samples = it->second.count;
      verdict.observed_s =
          it->second.percentile(percentile_rank(objective.percentile));
    }
    if (const auto it = slow.histograms.find(objective.metric);
        it != slow.histograms.end()) {
      slow_samples = it->second.count;
      verdict.slow_observed_s =
          it->second.percentile(percentile_rank(objective.percentile));
    }
    if (verdict.samples < objective.min_samples ||
        slow_samples < objective.min_samples) {
      verdict.status = SloStatus::kInsufficientData;
    } else if (verdict.observed_s > objective.threshold_s &&
               verdict.slow_observed_s > objective.threshold_s) {
      verdict.status = SloStatus::kBreach;
    } else {
      verdict.status = SloStatus::kPass;
    }
    report.verdicts.push_back(std::move(verdict));
  }
  freeze_on_breach(report, "slo-burn-breach: ");
  return report;
}

}  // namespace ps::obs
