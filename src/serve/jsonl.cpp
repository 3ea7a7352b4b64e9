#include "serve/jsonl.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strfmt.h"

namespace repro {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  std::map<std::string, JsonValue> object() {
    skip_ws();
    expect('{');
    std::map<std::string, JsonValue> out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        skip_ws();
        std::string key = string();
        skip_ws();
        expect(':');
        skip_ws();
        JsonValue v = value();
        if (!out.emplace(key, std::move(v)).second)
          throw JsonlError("duplicate key \"" + key + "\"");
        skip_ws();
        const char c = next();
        if (c == '}') break;
        if (c != ',') throw JsonlError("expected ',' or '}' in object");
      }
    }
    skip_ws();
    if (pos_ != s_.size()) throw JsonlError("trailing characters after object");
    return out;
  }

 private:
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  char next() {
    if (pos_ >= s_.size()) throw JsonlError("unexpected end of line");
    return s_[pos_++];
  }
  void expect(char c) {
    if (next() != c) throw JsonlError(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = next();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            // \uXXXX: job files are ASCII in practice; decode the BMP code
            // point as a single byte when it fits, else reject.
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = next();
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else throw JsonlError("bad \\u escape");
            }
            if (v > 0x7F) throw JsonlError("non-ASCII \\u escape unsupported");
            out += static_cast<char>(v);
            break;
          }
          default: throw JsonlError("bad escape sequence");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue value() {
    JsonValue v;
    const char c = peek();
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = string();
    } else if (c == 't' || c == 'f') {
      v.kind = JsonValue::Kind::kBool;
      v.b = c == 't';
      literal(c == 't' ? "true" : "false");
    } else if (c == 'n') {
      literal("null");
    } else if (c == '{' || c == '[') {
      throw JsonlError("nested containers are not supported in job lines");
    } else {
      v.kind = JsonValue::Kind::kNumber;
      const std::size_t start = pos_;
      while (pos_ < s_.size() && !std::isspace(static_cast<unsigned char>(s_[pos_])) &&
             s_[pos_] != ',' && s_[pos_] != '}')
        ++pos_;
      const std::string tok = s_.substr(start, pos_ - start);
      char* end = nullptr;
      v.num = std::strtod(tok.c_str(), &end);
      if (end == tok.c_str() || *end != '\0' || !std::isfinite(v.num))
        throw JsonlError("bad number \"" + tok + "\"");
    }
    return v;
  }

  void literal(const char* lit) {
    for (const char* p = lit; *p; ++p)
      if (next() != *p) throw JsonlError(std::string("bad literal, expected ") + lit);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::map<std::string, JsonValue> parse_jsonl_object(const std::string& line) {
  return Parser(line).object();
}

std::string json_string(const JsonValue& v, const std::string& key) {
  if (v.kind != JsonValue::Kind::kString)
    throw JsonlError("key \"" + key + "\" must be a string");
  return v.str;
}

double json_number(const JsonValue& v, const std::string& key) {
  if (v.kind != JsonValue::Kind::kNumber)
    throw JsonlError("key \"" + key + "\" must be a number");
  return v.num;
}

bool json_bool(const JsonValue& v, const std::string& key) {
  if (v.kind != JsonValue::Kind::kBool)
    throw JsonlError("key \"" + key + "\" must be a boolean");
  return v.b;
}

std::uint64_t json_u64(const JsonValue& v, const std::string& key) {
  const double d = json_number(v, key);
  if (!(d >= 0) || !(d < 18446744073709551616.0) || d != std::floor(d))
    throw JsonlError("key \"" + key +
                     "\" must be a non-negative integer < 2^64");
  return static_cast<std::uint64_t>(d);
}

std::int32_t json_i32(const JsonValue& v, const std::string& key) {
  const double d = json_number(v, key);
  if (!(d >= -2147483648.0) || !(d <= 2147483647.0) || d != std::floor(d))
    throw JsonlError("key \"" + key + "\" must be a 32-bit integer");
  return static_cast<std::int32_t>(d);
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonlWriter::key_prefix(const std::string& key) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += json_quote(key);
  out_ += ':';
}

void JsonlWriter::field(const std::string& key, const std::string& value) {
  key_prefix(key);
  out_ += json_quote(value);
}

void JsonlWriter::field(const std::string& key, const char* value) {
  field(key, std::string(value));
}

void JsonlWriter::field(const std::string& key, double value) {
  key_prefix(key);
  out_ += format_double_17g(value);
}

void JsonlWriter::field(const std::string& key, std::int64_t value) {
  key_prefix(key);
  out_ += std::to_string(value);
}

void JsonlWriter::field(const std::string& key, std::uint64_t value) {
  key_prefix(key);
  out_ += std::to_string(value);
}

void JsonlWriter::field(const std::string& key, int value) {
  field(key, static_cast<std::int64_t>(value));
}

void JsonlWriter::field(const std::string& key, bool value) {
  key_prefix(key);
  out_ += value ? "true" : "false";
}

std::string JsonlWriter::take() {
  out_ += '}';
  first_ = true;
  std::string r = std::move(out_);
  out_ = "{";
  return r;
}

}  // namespace repro
