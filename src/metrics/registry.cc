#include "metrics/registry.h"

namespace cht::metrics {

std::int64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count).
  std::int64_t rank = static_cast<std::int64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
  if (rank < 1) rank = 1;
  std::int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen >= rank) {
      // Clamp to the exact extremes so percentiles never report a value
      // outside the observed range.
      return std::clamp(bucket_upper(b), min(), max());
    }
  }
  return max();
}

void Histogram::merge_from(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        other.buckets_[static_cast<std::size_t>(b)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::unique_ptr<Counter>(new Counter(
                                             std::string(name), &enabled_)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(std::string(name), &enabled_)))
             .first;
  }
  return *it->second;
}

std::int64_t Registry::value(std::string_view name) const {
  if (const auto it = counters_.find(name); it != counters_.end()) {
    return it->second->value();
  }
  return 0;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void Registry::merge_from(const Registry& other) {
  other.for_each_counter(
      [this](const Counter& c) { counter(c.name()).inc(c.value()); });
  other.for_each_histogram(
      [this](const Histogram& h) { histogram(h.name()).merge_from(h); });
}

}  // namespace cht::metrics
