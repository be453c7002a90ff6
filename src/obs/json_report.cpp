#include "obs/json_report.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/counters.h"
#include "obs/trace.h"

namespace sdf::obs {

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) {
    throw std::logic_error("Json::operator[]: not an object");
  }
  for (auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  obj_.emplace_back(std::string(key), Json());
  return obj_.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) {
    throw std::logic_error("Json::push_back: not an array");
  }
  arr_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::kArray) throw std::out_of_range("Json::at: not array");
  return arr_.at(i);
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kInt:
      return a.int_ == b.int_;
    case Json::Type::kDouble:
      return a.dbl_ == b.dbl_;
    case Json::Type::kString:
      return a.str_ == b.str_;
    case Json::Type::kArray:
      return a.arr_ == b.arr_;
    case Json::Type::kObject:
      return a.obj_ == b.obj_;
  }
  return false;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  return out;
}

namespace {

void append_indent(std::string& out, int indent, int level) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) *
                 static_cast<std::size_t>(level),
             ' ');
}

std::string double_to_string(double d) {
  if (!std::isfinite(d)) return "null";  // JSON has no inf/nan
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  // Ensure the token re-parses as a double, not an integer.
  std::string s = buf;
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int level) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kInt:
      out += std::to_string(int_);
      return;
    case Type::kDouble:
      out += double_to_string(dbl_);
      return;
    case Type::kString:
      out += '"';
      out += json_escape(str_);
      out += '"';
      return;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        append_indent(out, indent, level + 1);
        arr_[i].dump_to(out, indent, level + 1);
      }
      append_indent(out, indent, level);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ',';
        append_indent(out, indent, level + 1);
        out += '"';
        out += json_escape(obj_[i].first);
        out += indent < 0 ? "\":" : "\": ";
        obj_[i].second.dump_to(out, indent, level + 1);
      }
      append_indent(out, indent, level);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}'");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // UTF-8 encode a BMP code point (surrogate pairs unsupported;
          // the serializer only emits \u for control characters).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("expected a value");
    if (is_double) {
      double d = 0.0;
      const auto [p, ec] =
          std::from_chars(token.data(), token.data() + token.size(), d);
      if (ec != std::errc() || p != token.data() + token.size()) {
        fail("bad number");
      }
      return Json(d);
    }
    std::int64_t i = 0;
    const auto [p, ec] =
        std::from_chars(token.data(), token.data() + token.size(), i);
    if (ec != std::errc() || p != token.data() + token.size()) {
      fail("bad number");
    }
    return Json(i);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

Json report() {
  Json doc = Json::object();
  doc["schema"] = "sdfmem.telemetry.v1";

  Json span_list = Json::array();
  for (const SpanRecord& rec : spans()) {
    Json s = Json::object();
    s["name"] = rec.name;
    s["depth"] = static_cast<std::int64_t>(rec.depth);
    s["thread"] = static_cast<std::int64_t>(rec.thread);
    s["start_ns"] = rec.start_ns;
    s["dur_ns"] = rec.duration_ns();
    span_list.push_back(std::move(s));
  }
  doc["spans"] = std::move(span_list);

  Json counter_obj = Json::object();
  for (const auto& [name, value] : counters()) counter_obj[name] = value;
  doc["counters"] = std::move(counter_obj);

  Json gauge_obj = Json::object();
  for (const auto& [name, value] : gauges()) gauge_obj[name] = value;
  doc["gauges"] = std::move(gauge_obj);
  return doc;
}

std::optional<Diagnostic> write_file_checked(const std::string& path,
                                             const Json& doc) {
  const auto fail = [&path](const char* what) {
    Diagnostic diag;
    diag.code = ErrorCode::kIo;
    diag.message = std::string(what) + " " + path;
    if (errno != 0) {
      diag.message += ": ";
      diag.message += std::strerror(errno);
    }
    return diag;
  };
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return fail("cannot open");
  out << doc.dump(2) << "\n";
  out.flush();
  if (!out) return fail("cannot write");  // ENOSPC / closed pipe land here
  out.close();
  if (out.fail()) return fail("cannot finish writing");
  return std::nullopt;
}

}  // namespace sdf::obs
