#include "json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "stats.h"

namespace e2e {

const Json* Json::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double Json::num(const std::string& key) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : kNaN;
}

std::string Json::text(const std::string& key) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->str : std::string();
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  std::optional<Json> document(std::string* err) {
    Json v;
    const bool ok = value(v, 0) && (skip_ws(), pos_ == s_.size());
    if (ok) return v;
    if (err != nullptr)
      *err = "malformed JSON near byte " + std::to_string(pos_);
    return std::nullopt;
  }

 private:
  // Our own files nest a few levels; the cap only stops runaway recursion
  // on a damaged file.
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  bool value(Json& v, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(v, depth);
    if (c == '[') return array(v, depth);
    if (c == '"') {
      v.kind = Json::Kind::kString;
      return string(v.str);
    }
    if (literal("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
      return true;
    }
    if (literal("false")) {
      v.kind = Json::Kind::kBool;
      return true;
    }
    if (literal("null")) return true;
    return number(v);
  }

  bool number(Json& v) {
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    v.number = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<std::size_t>(end - begin);
    v.kind = Json::Kind::kNumber;
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned cp = 0;
          const auto r = std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4,
                                         cp, 16);
          if (r.ptr != s_.data() + pos_ + 4) return false;
          pos_ += 4;
          encode_utf8(cp, out);
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  static void encode_utf8(unsigned cp, std::string& out) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool array(Json& v, int depth) {
    v.kind = Json::Kind::kArray;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      v.arr.emplace_back();
      if (!value(v.arr.back(), depth + 1)) return false;
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (s_[pos_++] != ',') return false;
    }
  }

  bool object(Json& v, int depth) {
    v.kind = Json::Kind::kObject;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
      if (!value(v.obj[key], depth + 1)) return false;
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (s_[pos_++] != ',') return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> read_json_file(const std::string& path, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (err != nullptr) *err = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string why;
  const std::string text = ss.str();
  auto v = Parser(text).document(&why);
  if (!v && err != nullptr) *err = path + ": " + why;
  return v;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace e2e
