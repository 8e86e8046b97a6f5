// Text helpers shared by every obs writer (JSON, Prometheus, tables), and
// the one JSON reader.
//
// One copy of each formatting decision, so the metrics dump, the bench
// artifact, the SLO and critical-path views and the Prometheus scrapes
// cannot drift apart byte by byte. The reader sits next to the escaper
// whose escapes it decodes; the artifact parser and the tests use it.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace ps::obs {

/// Appends `s` with JSON string escaping: \" \\ \n \t, and any other
/// control byte as \u00XX.
void json_escape_into(std::string& out, const std::string& s);

/// One parsed JSON value: null, a number, a string, an object or an array.
struct JsonValue {
  using Object = std::map<std::string, JsonValue>;
  using Array = std::vector<JsonValue>;
  std::variant<std::nullptr_t, double, std::string, Object, Array> v = nullptr;

  bool is_object() const { return std::holds_alternative<Object>(v); }
  bool is_array() const { return std::holds_alternative<Array>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  const Object& obj() const { return std::get<Object>(v); }
  const Array& arr() const { return std::get<Array>(v); }
  double num() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  /// obj().at(key): throws when absent or not an object.
  const JsonValue& at(const std::string& key) const { return obj().at(key); }
};

/// Parses one JSON document of the subset obs writes: objects, arrays,
/// numbers, and strings with the escapes json_escape_into() emits. On
/// failure returns nullopt and, when `error` is non-null, a one-line reason
/// with the byte offset.
std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error);

/// Writes `text` to `path` (replacing it); false unless every byte lands.
bool write_text_file(const std::string& path, const std::string& text);

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
