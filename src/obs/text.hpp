// Text helpers shared by every obs writer (JSON, Prometheus, tables).
//
// One copy of each formatting decision, so the metrics dump, the bench
// artifact, the SLO and critical-path views and the Prometheus scrapes
// cannot drift apart byte by byte. Internal to obs.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace ps::obs {

/// Appends `s` with JSON string escaping: \" \\ \n \t, and any other
/// control byte as \u00XX.
void json_escape_into(std::string& out, const std::string& s);

/// Appends `{"<key>":<value>,...}` over a name-keyed map, keys escaped;
/// `append_value(v)` appends one value.
template <typename Map, typename AppendValue>
void append_json_object(std::string& out, const Map& map,
                        AppendValue append_value) {
  out += "{";
  bool first = true;
  for (const auto& [key, value] : map) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    json_escape_into(out, key);
    out += "\":";
    append_value(value);
  }
  out += "}";
}

/// "%.9g": the shortest form that survives a JSON round trip for the value
/// range obs emits.
std::string fmt_double(double v);

/// Human latency for tables: "12.3 us", "4.56 ms", "1.234 s".
std::string fmt_latency(double seconds);

/// Prometheus metric name: `ps_` + name with every byte outside
/// [a-zA-Z0-9_:] replaced by '_'.
std::string prom_name(const std::string& name);

/// Seconds rounded to whole nanoseconds (negative -> 0): the integer domain
/// histogram sums and extremes accumulate in. Inline because
/// Histogram::observe calls it on the hot path.
inline std::uint64_t to_ns(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

}  // namespace ps::obs
