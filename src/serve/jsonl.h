#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace repro {

/// Minimal JSON support for the flow service's job files and result lines.
///
/// The batch format is JSON Lines with one *flat* object per line — string,
/// number, boolean and null values only (no nesting, which job specs do not
/// need). This keeps the repository dependency-free; the writer side emits
/// doubles with %.17g so deterministic metrics survive a text round trip
/// bit-exactly.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString } kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
};

class JsonlError : public std::runtime_error {
 public:
  explicit JsonlError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses one flat JSON object. Throws JsonlError on malformed input,
/// nested containers, or duplicate keys.
std::map<std::string, JsonValue> parse_jsonl_object(const std::string& line);

// Typed readers for one value of a parsed object. `key` names the value in
// the JsonlError thrown on a kind mismatch ("key \"seed\" must be a number").
// The integer readers range-check before narrowing: a negative or huge
// double -> unsigned/int cast is undefined behaviour, so "seed": -1 must be
// a JsonlError, not UB.
std::string json_string(const JsonValue& v, const std::string& key);
double json_number(const JsonValue& v, const std::string& key);
bool json_bool(const JsonValue& v, const std::string& key);
std::uint64_t json_u64(const JsonValue& v, const std::string& key);
std::int32_t json_i32(const JsonValue& v, const std::string& key);

/// Incremental writer for one flat JSON object line.
class JsonlWriter {
 public:
  void field(const std::string& key, const std::string& value);
  void field(const std::string& key, const char* value);
  void field(const std::string& key, double value);  ///< %.17g
  void field(const std::string& key, std::int64_t value);
  void field(const std::string& key, std::uint64_t value);
  void field(const std::string& key, int value);
  void field(const std::string& key, bool value);

  /// The finished line, without a trailing newline.
  std::string take();

 private:
  void key_prefix(const std::string& key);

  std::string out_ = "{";
  bool first_ = true;
};

/// JSON string escaping (quotes included in the return value).
std::string json_quote(const std::string& s);

}  // namespace repro
