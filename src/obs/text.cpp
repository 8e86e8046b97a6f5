#include "obs/text.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>

namespace ps::obs {

namespace {

/// Recursive descent over one document; parse_json drives it.
struct JsonReader {
  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    ++pos_;
    return true;
  }

  std::optional<JsonValue> parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return JsonValue{std::move(*s)};
    }
    return parse_number();
  }

  /// Decodes exactly the escapes json_escape_into() emits: \" \\ \n \t and
  /// \u00XX for the other control bytes.
  std::optional<std::string> parse_string() {
    if (!expect('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] != '\\') {
        out += text_[pos_++];
        continue;
      }
      const char esc = pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
      pos_ += 2;
      const char* hex = text_.data() + std::min(pos_, text_.size());
      unsigned code = 0;
      if (esc == '"' || esc == '\\') {
        out += esc;
      } else if (esc == 'n' || esc == 't') {
        out += esc == 'n' ? '\n' : '\t';
      } else if (esc == 'u' && pos_ + 4 <= text_.size() &&
                 std::from_chars(hex, hex + 4, code, 16).ptr == hex + 4 &&
                 code < 0x80) {
        out += static_cast<char>(code);
        pos_ += 4;
      } else {
        pos_ -= 2;
        fail("unsupported string escape");
        return std::nullopt;
      }
    }
    if (!expect('"')) return std::nullopt;
    return out;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a JSON number");
      return std::nullopt;
    }
    // std::stod stops at the first byte it cannot use ("1-2" reads as 1);
    // the whole token must be the number.
    const std::string token = text_.substr(start, pos_ - start);
    std::size_t used = 0;
    try {
      const double value = std::stod(token, &used);
      if (used == token.size()) return JsonValue{value};
    } catch (const std::exception&) {
    }
    pos_ = start;
    fail("unparsable number '" + token + "'");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_object() {
    if (!expect('{')) return std::nullopt;
    JsonValue::Object out;
    if (peek() != '}') {
      while (true) {
        auto key = parse_string();
        if (!key || !expect(':')) return std::nullopt;
        auto value = parse_value();
        if (!value) return std::nullopt;
        out[std::move(*key)] = std::move(*value);
        if (peek() != ',') break;
        ++pos_;
      }
    }
    if (!expect('}')) return std::nullopt;
    return JsonValue{std::move(out)};
  }

  std::optional<JsonValue> parse_array() {
    if (!expect('[')) return std::nullopt;
    JsonValue::Array out;
    if (peek() != ']') {
      while (true) {
        auto value = parse_value();
        if (!value) return std::nullopt;
        out.push_back(std::move(*value));
        if (peek() != ',') break;
        ++pos_;
      }
    }
    if (!expect(']')) return std::nullopt;
    return JsonValue{std::move(out)};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_{};
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error) {
  JsonReader reader{text};
  std::optional<JsonValue> value = reader.parse_value();
  reader.skip_ws();
  if (value && reader.pos_ == text.size()) return value;
  if (error != nullptr) {
    *error = reader.error_.empty() ? "trailing content after JSON value"
                                   : reader.error_;
  }
  return std::nullopt;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  file.close();  // a full device may fail only on the final flush
  return static_cast<bool>(file);
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_latency(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
  }
  return buf;
}

std::string prom_name(const std::string& name) {
  std::string out = "ps_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace ps::obs
