// perfbench: the two-clock benchmark of the proxy store.
//
//   perfbench --workload hot-small|bulk-handoff|steer-tasks --seed N
//             --seconds S --trace 0|1 [--git-rev REV] [--source-digest HEX]
//   perfbench --check --workload NAME|all --seed N
//
// A run repeats the workload's fixed, seed-determined op sequence (a "rep",
// each on a freshly built testbed) until --seconds have passed. With
// --trace 0 every rep is untraced and the run prints the end-to-end metrics;
// with --trace 1 untraced and traced reps alternate and the run prints the
// per-layer metrics of the traced reps plus the tracing overhead. Virtual
// time (vtime) comes from the calibrated model and is identical for every
// rep of one seed; the run fails its correctness check if it is not.
//
// Output: one JSON line describing the run (workload parameters, seed, git
// revision, source digest, build type), a table of metrics with units, and
// as the last line {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

const Workload kWorkloads[] = {
    {"hot-small", &hot_small_params, &run_hot_small},
    {"bulk-handoff", &bulk_handoff_params, &run_bulk_handoff},
    {"steer-tasks", &steer_tasks_params, &run_steer_tasks},
};

/// Reps of the set-up time median when the measured reps are fewer.
constexpr std::size_t kMinSetupSamples = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool check = false;
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--git-rev REV] [--source-digest HEX]\n"
               "       perfbench --check --workload NAME|all --seed N\n",
               error);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check") {
      args.check = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--git-rev") {
      args.git_rev = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string unit_for(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_per_mb")) return "us/MB";
  if (ends("_per_s")) return "1/s";
  if (ends("_us") || ends("_us_per_op")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_mb")) return "MB";
  if (ends("_bytes")) return "bytes";
  if (ends("ratio") || ends("_share") || ends("utilization")) return "ratio";
  return "count";
}

struct Metric {
  std::string name;
  double value;
};

/// Wall-clock outcome of one rep. A run keeps these rather than raw
/// samples, so its memory does not grow with its length.
struct WallSummary {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double cpu_us_per_op = 0.0;
};

struct Reps {
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<WallSummary> untraced_wall;
  std::vector<WallSummary> traced_wall;
};

/// Runs reps until `seconds` have passed (and, traced, at least one rep of
/// each kind). Per-op samples are reduced to a WallSummary; vtime samples
/// are kept for the first rep only, as every rep of a seed has the same.
Reps run_reps(const Workload& workload, const Args& args) {
  Reps reps;
  const double start = wall_now_s();
  for (std::size_t i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    RepResult rep = workload.run(RepOptions{args.seed, traced, false});
    const double ops = static_cast<double>(rep.attempted);
    const WallSummary wall{ops / rep.phase_wall_s,
                           quantile(rep.op_wall_us, 0.5),
                           quantile(rep.op_wall_us, 0.99),
                           1e6 * rep.phase_cpu_s / ops};
    // Move-assign empty vectors: `= {}` would keep the capacity.
    rep.op_wall_us = std::vector<double>();
    if (i > 0) rep.op_vtime_s = std::vector<double>();
    (traced ? reps.traced : reps.untraced).push_back(std::move(rep));
    (traced ? reps.traced_wall : reps.untraced_wall).push_back(wall);
    release_free_memory();
    const bool both = !args.trace || !reps.traced.empty();
    if (both && wall_now_s() - start >= args.seconds) break;
  }
  return reps;
}

/// Median over reps of one WallSummary field.
double median_of(const std::vector<WallSummary>& walls,
                 double WallSummary::*field) {
  std::vector<double> values;
  for (const WallSummary& wall : walls) values.push_back(wall.*field);
  return median(std::move(values));
}

/// Correctness over every rep: no failed op, no failed end-state check, and
/// one op sequence and one vtime outcome for the seed, traced or not.
bool check_reps(const std::vector<const RepResult*>& reps,
                std::vector<std::string>& problems) {
  for (const RepResult* rep : reps) {
    if (rep->failed > 0) {
      problems.push_back(std::to_string(rep->failed) + " failed ops in a rep");
    }
    for (const std::string& error : rep->errors) problems.push_back(error);
    if (rep->op_digest != reps.front()->op_digest) {
      problems.push_back("op sequence differs between reps of one seed");
    }
    if (rep->vtime_digest != reps.front()->vtime_digest) {
      problems.push_back("vtime differs between reps of one seed");
    }
    const auto share = rep->layers.find("trace.attributed_share");
    if (share != rep->layers.end() && std::fabs(share->second - 1.0) > 1e-6) {
      problems.push_back("span self times do not add up to op wall time");
    }
  }
  return problems.empty();
}

int run_check(const Args& args) {
  std::vector<const Workload*> targets;
  if (args.workload == "all") {
    for (const Workload& workload : kWorkloads) targets.push_back(&workload);
  } else if (const Workload* workload = find_workload(args.workload)) {
    targets.push_back(workload);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  int failures = 0;
  const auto report = [&](const char* workload, const char* what, bool ok) {
    std::printf("%s %s: %s\n", ok ? "PASS" : "FAIL", workload, what);
    if (!ok) ++failures;
  };
  for (const Workload* workload : targets) {
    const RepResult first = workload->run(RepOptions{args.seed, false, false});
    const RepResult again = workload->run(RepOptions{args.seed, false, false});
    const RepResult traced = workload->run(RepOptions{args.seed, true, false});
    const RepResult other =
        workload->run(RepOptions{args.seed + 1, false, false});
    release_free_memory();
    std::vector<std::string> problems;
    report(workload->name, "every op and end-state check passes",
           check_reps({&first, &again, &traced}, problems));
    for (const std::string& problem : problems) {
      std::printf("  %s\n", problem.c_str());
    }
    report(workload->name,
           "same seed twice: bit-identical vtime and kv counters",
           first.vtime_digest == again.vtime_digest &&
               first.op_vtime_s == again.op_vtime_s);
    report(workload->name, "TimedConnector and spans change no vtime",
           first.vtime_digest == traced.vtime_digest &&
               first.op_vtime_s == traced.op_vtime_s);
    report(workload->name, "another seed changes the op sequence",
           first.op_digest != other.op_digest &&
               first.vtime_digest != other.vtime_digest);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.check) return run_check(args);
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  const Reps reps = run_reps(*workload, args);

  std::vector<double> setups;
  for (const RepResult& rep : reps.untraced) setups.push_back(rep.setup_s);
  while (!args.trace && setups.size() < kMinSetupSamples) {
    setups.push_back(
        workload->run(RepOptions{args.seed, false, true}).setup_s);
    release_free_memory();
  }

  std::vector<const RepResult*> all;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* kind : {&reps.untraced, &reps.traced}) {
    for (const RepResult& rep : *kind) {
      all.push_back(&rep);
      attempted += rep.attempted;
      failed += rep.failed;
    }
  }
  std::vector<std::string> problems;
  const bool correct = check_reps(all, problems);
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "perfbench: incorrect: %s\n", problem.c_str());
  }

  // Wall metrics are medians over reps; vtime metrics come from the first
  // rep, which every other rep of the seed matches bit for bit.
  const RepResult& first = reps.untraced.front();
  const double wall_ops_per_s =
      median_of(reps.untraced_wall, &WallSummary::ops_per_s);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setups)},
        {"wall_ops_per_s", wall_ops_per_s},
        {"op_wall_p50_us", median_of(reps.untraced_wall, &WallSummary::p50_us)},
        {"op_wall_p99_us", median_of(reps.untraced_wall, &WallSummary::p99_us)},
        {"cpu_us_per_op",
         median_of(reps.untraced_wall, &WallSummary::cpu_us_per_op)},
        {"peak_rss_mb", peak_rss_mb()},
        {"op_vtime_p50_ms", 1e3 * quantile(first.op_vtime_s, 0.5)},
        {"op_vtime_p99_ms", 1e3 * quantile(first.op_vtime_s, 0.99)},
        {"vtime_ops_per_s", first.vtime_ops_per_s},
        {"success_ratio",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted)},
    };
  } else {
    std::map<std::string, std::vector<double>> layers;
    for (const RepResult& rep : reps.traced) {
      for (const auto& [name, value] : rep.layers) {
        layers[name].push_back(value);
      }
    }
    for (auto& [name, values] : layers) {
      metrics.push_back({name, median(std::move(values))});
    }
    metrics.push_back(
        {"trace.overhead_ratio",
         median_of(reps.traced_wall, &WallSummary::ops_per_s) /
             wall_ops_per_s});
  }

  std::string params;
  for (const auto& [key, value] : workload->params()) {
    params += (params.empty() ? "" : ", ") + json_string(key) + ": " +
              json_string(value);
  }
  std::printf(
      "{\"benchmark\": \"perfbench\", \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"git_rev\": %s, \"source_digest\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"reps\": {\"untraced\": %zu, "
      "\"traced\": %zu}, \"ops_per_rep\": %llu, \"vtime_samples\": %zu, "
      "\"fail_ratio\": %s, \"params\": {%s}}\n",
      json_string(workload->name).c_str(),
      static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace ? 1 : 0,
      json_string(args.git_rev).c_str(),
      json_string(args.source_digest).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(), reps.untraced.size(),
      reps.traced.size(), static_cast<unsigned long long>(first.attempted),
      first.op_vtime_s.size(),
      json_number(static_cast<double>(failed) / static_cast<double>(attempted))
          .c_str(),
      params.c_str());
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %18.6f %s\n", metric.name.c_str(), metric.value,
                unit_for(metric.name).c_str());
  }
  std::string body;
  for (const Metric& metric : metrics) {
    body += (body.empty() ? "" : ", ") + json_string(metric.name) +
            ": {\"value\": " + json_number(metric.value) +
            ", \"unit\": " + json_string(unit_for(metric.name)) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), body.c_str());
  return 0;
}
