#include "obs/json_report.h"

#include <cerrno>
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
  // Keep the token a double, not an integer, for JSON readers.
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
