// Just enough JSON for bench_e2e: it writes its report and Chrome trace as
// JSON, and reads BENCHMARK.json, a baseline report (--check) and its own
// trace file (--smoke) back.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  /// Member `key` of an object; null when absent or not an object.
  const Json* find(const std::string& key) const;
  /// Member `key` as a number; NaN when absent or not a number.
  double num(const std::string& key) const;
  /// Member `key` as a string; empty when absent or not a string.
  std::string text(const std::string& key) const;
};

/// Reads and parses a JSON file. Returns nullopt, with `err` saying what
/// went wrong and where, when the file is unreadable or malformed.
std::optional<Json> read_json_file(const std::string& path, std::string* err);

/// A double as the shortest text that reads back to the same value. JSON
/// has no NaN or infinity, so non-finite values print as null.
std::string json_number(double v);

/// `s` as a quoted, escaped JSON string literal.
std::string json_string(const std::string& s);

}  // namespace e2e
