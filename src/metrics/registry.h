// Observability core: a per-process registry of named counters and
// fixed-bucket log-scale histograms.
//
// Design constraints (see docs/OBSERVABILITY.md):
//   - the record path (Counter::inc, Histogram::record) is
//     allocation-free: handles are obtained once at registration time and
//     write into pre-allocated storage;
//   - with the registry disabled every record call costs exactly one branch
//     (no allocation, no sample storage) — asserted by test_metrics;
//   - registries are mergeable by metric name (Registry::merge_from), so
//     per-replica registries aggregate into one cluster-wide view;
//   - iteration order is deterministic (name order), so exported artifacts
//     are reproducible byte for byte.
//
// Metrics never feed back into protocol decisions, so enabling or disabling
// a registry cannot change simulation behaviour (chaos fingerprints are
// invariant; test_observability asserts this).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace cht::metrics {

class Registry;

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::int64_t delta = 1) {
    if (!*enabled_) return;
    value_ += delta;
  }
  std::int64_t value() const { return value_; }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Counter(std::string name, const bool* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  std::string name_;
  const bool* enabled_;
  std::int64_t value_ = 0;
};

// Fixed-bucket log-scale histogram (HDR-style: 4 sub-buckets per power of
// two). Covers non-negative 63-bit values with <= 25% relative bucket error;
// min/max/sum are tracked exactly. By convention histogram names carry their
// unit as a suffix (e.g. "span.doops.total_us").
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;
  static constexpr int kBuckets = 248;  // bucket_of(INT64_MAX) == 247

  void record(std::int64_t value) {
    if (!*enabled_) return;
    if (value < 0) value = 0;
    ++buckets_[static_cast<std::size_t>(bucket_of(value))];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  std::int64_t mean() const { return count_ == 0 ? 0 : sum_ / count_; }

  // Nearest-rank percentile, q in [0, 1]. Returns the upper bound of the
  // bucket holding the rank-th sample (exact at the extremes: q == 0 gives
  // the tracked min, q == 1 the tracked max).
  std::int64_t percentile(double q) const;
  std::int64_t p50() const { return percentile(0.50); }
  std::int64_t p99() const { return percentile(0.99); }

  void merge_from(const Histogram& other);

  const std::string& name() const { return name_; }
  const std::array<std::int64_t, kBuckets>& buckets() const { return buckets_; }

  // Log-scale bucketing: values 0..3 map to their own buckets; beyond that,
  // each power of two splits into kSubBuckets linear sub-buckets.
  static int bucket_of(std::int64_t value) {
    if (value < kSubBuckets) return static_cast<int>(value);
    const int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(value));
    const int shift = msb - 2;
    const int sub = static_cast<int>((value >> shift) & 3);
    return (msb - 2) * kSubBuckets + kSubBuckets + sub;
  }
  static std::int64_t bucket_lower(int bucket) {
    if (bucket < kSubBuckets) return bucket;
    const int octave = (bucket - kSubBuckets) / kSubBuckets;
    const int sub = (bucket - kSubBuckets) % kSubBuckets;
    return static_cast<std::int64_t>(kSubBuckets + sub) << octave;
  }
  static std::int64_t bucket_upper(int bucket) {
    if (bucket < kSubBuckets) return bucket;
    const int octave = (bucket - kSubBuckets) / kSubBuckets;
    // Parenthesized so the top bucket ends at INT64_MAX without overflow.
    return bucket_lower(bucket) + ((std::int64_t{1} << octave) - 1);
  }

 private:
  friend class Registry;
  Histogram(std::string name, const bool* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  std::string name_;
  const bool* enabled_;
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = 0;
};

// Owns all metrics of one process. Registration (counter/histogram)
// allocates and may be called at any time; the returned references stay
// valid for the registry's lifetime. Not copyable or movable: handles point
// into it.
class Registry {
 public:
  explicit Registry(bool enabled = true) : enabled_(enabled) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Convenience name-based increment (does a map lookup; prefer handles on
  // hot paths).
  void add(std::string_view name, std::int64_t delta = 1) {
    if (!enabled_) return;
    counter(name).inc(delta);
  }

  // Read-only lookups; zero/null when the metric does not exist.
  std::int64_t value(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // Adds every metric of `other` into this registry, matching by name and
  // creating missing entries (counters add values; histograms merge
  // bucket-wise). Used to aggregate per-replica registries.
  void merge_from(const Registry& other);

  // Deterministic (name-ordered) iteration for exporters.
  template <class Fn>
  void for_each_counter(Fn fn) const {
    for (const auto& [name, c] : counters_) fn(*c);
  }
  template <class Fn>
  void for_each_histogram(Fn fn) const {
    for (const auto& [name, h] : histograms_) fn(*h);
  }

 private:
  bool enabled_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace cht::metrics
