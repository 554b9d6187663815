#include "metrics/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace cht::metrics {
namespace json {

Value& Value::push(Value element) {
  assert(kind_ == Kind::kArray);
  elements_.push_back(std::move(element));
  return *this;
}

Value& Value::set(std::string key, Value value) {
  assert(kind_ == Kind::kObject);
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  fields_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Value::size() const {
  switch (kind_) {
    case Kind::kArray:
      return elements_.size();
    case Kind::kObject:
      return fields_.size();
    default:
      return 0;
  }
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
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
      case '\r':
        out += "\\r";
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
  return out;
}

namespace {

void write_indent(std::ostream& out, int indent, int depth) {
  if (indent <= 0) return;
  out << '\n';
  for (int i = 0; i < indent * depth; ++i) out << ' ';
}

void write_double(std::ostream& out, double d) {
  if (!std::isfinite(d)) {
    out << "null";  // JSON has no NaN/Inf; null keeps parsers happy.
    return;
  }
  if (d == static_cast<double>(static_cast<std::int64_t>(d)) &&
      std::abs(d) < 1e15) {
    out << static_cast<std::int64_t>(d) << ".0";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(12);
  tmp << d;
  out << tmp.str();
}

}  // namespace

void Value::write(std::ostream& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out << "null";
      break;
    case Kind::kBool:
      out << (bool_ ? "true" : "false");
      break;
    case Kind::kInt:
      out << int_;
      break;
    case Kind::kDouble:
      write_double(out, double_);
      break;
    case Kind::kString:
      out << '"' << escape(string_) << '"';
      break;
    case Kind::kArray: {
      if (elements_.empty()) {
        out << "[]";
        break;
      }
      out << '[';
      bool first = true;
      for (const auto& element : elements_) {
        if (!first) out << ',';
        first = false;
        write_indent(out, indent, depth + 1);
        element.write(out, indent, depth + 1);
      }
      write_indent(out, indent, depth);
      out << ']';
      break;
    }
    case Kind::kObject: {
      if (fields_.empty()) {
        out << "{}";
        break;
      }
      out << '{';
      bool first = true;
      for (const auto& [key, value] : fields_) {
        if (!first) out << ',';
        first = false;
        write_indent(out, indent, depth + 1);
        out << '"' << escape(key) << "\": ";
        value.write(out, indent, depth + 1);
      }
      write_indent(out, indent, depth);
      out << '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::ostringstream out;
  write(out, indent, 0);
  return out.str();
}

}  // namespace json

json::Value histogram_to_json(const Histogram& histogram) {
  auto value = json::Value::object();
  value.set("count", histogram.count());
  value.set("sum", histogram.sum());
  value.set("min", histogram.min());
  value.set("max", histogram.max());
  value.set("mean", histogram.mean());
  value.set("p50", histogram.p50());
  value.set("p99", histogram.p99());
  auto buckets = json::Value::array();
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    const std::int64_t n = histogram.buckets()[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    buckets.push(
        json::Value::array().push(Histogram::bucket_lower(b)).push(n));
  }
  value.set("buckets", std::move(buckets));
  return value;
}

json::Value registry_to_json(const Registry& registry) {
  auto value = json::Value::object();
  auto counters = json::Value::object();
  registry.for_each_counter(
      [&](const Counter& c) { counters.set(c.name(), c.value()); });
  value.set("counters", std::move(counters));
  auto histograms = json::Value::object();
  registry.for_each_histogram([&](const Histogram& h) {
    histograms.set(h.name(), histogram_to_json(h));
  });
  value.set("histograms", std::move(histograms));
  return value;
}

}  // namespace cht::metrics
