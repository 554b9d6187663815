// Minimal JSON document builder + the versioned exporter for bench/tool
// artifacts. No external dependencies: the repo's artifacts (BENCH_*.json,
// --metrics-out) are written by `Value::write`, which emits deterministic,
// insertion-ordered, pretty-printed JSON so golden tests and diffs are
// stable byte for byte.
//
// Artifact schema (pinned; bump kBenchSchemaVersion on breaking change):
//   {
//     "schema": "cht.bench.v1", "schema_version": 1,
//     "name": "<artifact name>", "smoke": bool,
//     "sections":      [{id, claim, headers, rows, notes}],
//     "metrics":       {flat name -> number},
//     "configs":       [{label, cluster fields..., overrides{...}}],
//     "observability": [{label, counters{}, histograms{name ->
//                        {count,sum,min,max,mean,p50,p99,buckets}},
//                        messages{sent,delivered,dropped,by_type{}}}]
//   }
// docs/OBSERVABILITY.md documents the schema field by field; the golden
// schema test (tests/test_observability.cc) and tools/bench_diff.py enforce
// it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "metrics/registry.h"

namespace cht::metrics {

inline constexpr const char* kBenchSchema = "cht.bench.v1";
inline constexpr int kBenchSchemaVersion = 1;

namespace json {

// An owned JSON document node. Objects preserve insertion order.
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT(runtime/explicit)
  Value(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  Value(int i) : kind_(Kind::kInt), int_(i) {}
  Value(std::size_t i) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(i)) {}
  Value(double d) : kind_(Kind::kDouble), double_(d) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}

  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }

  // Array append; returns *this for chaining.
  Value& push(Value element);
  // Object field set (overwrites an existing key in place); returns *this.
  Value& set(std::string key, Value value);
  // Object field lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  std::size_t size() const;

  void write(std::ostream& out, int indent = 2, int depth = 0) const;
  std::string dump(int indent = 2) const;

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> elements_;
  std::vector<std::pair<std::string, Value>> fields_;
};

std::string escape(const std::string& s);

}  // namespace json

// {count, sum, min, max, mean, p50, p99, buckets:[[lower, count], ...]}
// (only non-empty buckets are listed).
json::Value histogram_to_json(const Histogram& histogram);

// {counters:{name: value}, histograms:{name: {...}}}.
json::Value registry_to_json(const Registry& registry);

}  // namespace cht::metrics
