#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>

#include "metrics/json.h"
#include "metrics/registry.h"
#include "metrics/span.h"
#include "metrics/stats.h"
#include "metrics/table.h"

// Global allocation counter for the disabled-record-path test. Overriding
// the global operators in this test binary lets us assert "zero allocations"
// rather than merely "no observable state change".
static std::size_t g_allocations = 0;

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cht::metrics {
namespace {

TEST(LatencyRecorderTest, OrderStatistics) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.record(Duration::micros(i));
  EXPECT_EQ(r.count(), 100u);
  EXPECT_EQ(r.min(), Duration::micros(1));
  EXPECT_EQ(r.max(), Duration::micros(100));
  EXPECT_EQ(r.mean(), Duration::micros(50));  // 5050/100 truncated
  EXPECT_EQ(r.p50(), Duration::micros(51));   // nearest rank: sorted[50]
  EXPECT_EQ(r.p99(), Duration::micros(99));
  EXPECT_EQ(r.percentile(0.0), Duration::micros(1));
  EXPECT_EQ(r.percentile(1.0), Duration::micros(100));
}

TEST(LatencyRecorderTest, SingleSample) {
  LatencyRecorder r;
  r.record(Duration::millis(7));
  EXPECT_EQ(r.p50(), Duration::millis(7));
  EXPECT_EQ(r.min(), r.max());
}

TEST(LatencyRecorderTest, ClearResets) {
  LatencyRecorder r;
  r.record(Duration::millis(1));
  r.clear();
  EXPECT_TRUE(r.empty());
}

TEST(LatencyRecorderTest, UnsortedInput) {
  LatencyRecorder r;
  for (int v : {30, 10, 20}) r.record(Duration::micros(v));
  EXPECT_EQ(r.min(), Duration::micros(10));
  EXPECT_EQ(r.p50(), Duration::micros(20));
  EXPECT_EQ(r.max(), Duration::micros(30));
}

TEST(TableTest, AlignsColumns) {
  Table table({"a", "long-header"});
  table.add_row({"xxxxx", "1"});
  table.add_row({"y", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string expected =
      "| a     | long-header |\n"
      "|-------|-------------|\n"
      "| xxxxx | 1           |\n"
      "| y     | 22          |\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(TableTest, MissingCellsRenderEmpty) {
  Table table({"a", "b"});
  table.add_row({"only-one"});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("| only-one | "), std::string::npos);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.14159, 0), "3");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(42)), "42");
}

TEST(HistogramTest, BucketingExactBelowSubBucketCount) {
  for (std::int64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_of(v), v);
    EXPECT_EQ(Histogram::bucket_lower(static_cast<int>(v)), v);
    EXPECT_EQ(Histogram::bucket_upper(static_cast<int>(v)), v);
  }
}

TEST(HistogramTest, BucketingLogScale) {
  // 1000 has msb 9 (512); sub-bucket (1000 >> 7) & 3 == 3, so bucket
  // (9-2)*4 + 4 + 3 == 35, spanning [896, 1023].
  EXPECT_EQ(Histogram::bucket_of(1000), 35);
  EXPECT_EQ(Histogram::bucket_lower(35), 896);
  EXPECT_EQ(Histogram::bucket_upper(35), 1023);
  // Every value lies within its own bucket's bounds; buckets are <= 25%
  // relative error wide.
  for (std::int64_t v : {std::int64_t{4}, std::int64_t{5}, std::int64_t{7},
                         std::int64_t{8}, std::int64_t{1023},
                         std::int64_t{1024}, std::int64_t{123456789},
                         std::numeric_limits<std::int64_t>::max()}) {
    const int b = Histogram::bucket_of(v);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, Histogram::kBuckets);
    EXPECT_LE(Histogram::bucket_lower(b), v);
    EXPECT_GE(Histogram::bucket_upper(b), v);
  }
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::int64_t>::max()),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kBuckets - 1),
            std::numeric_limits<std::int64_t>::max());
}

TEST(HistogramTest, PercentileEdges) {
  Registry registry;
  auto& h = registry.histogram("h_us");
  // Empty: everything reports zero.
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
  for (int v = 1; v <= 100; ++v) h.record(v);
  // q == 0 is the exact min, q == 1 the exact max (not bucket bounds).
  EXPECT_EQ(h.percentile(0.0), 1);
  EXPECT_EQ(h.percentile(1.0), 100);
  // Interior percentiles land within bucket resolution of the exact rank,
  // and never outside the observed range.
  EXPECT_GE(h.p50(), 50);
  EXPECT_LE(h.p50(), 63);  // bucket [48,63] holds rank 50
  EXPECT_LE(h.p99(), 100);
  EXPECT_GE(h.p99(), 96);
  EXPECT_EQ(h.mean(), 50);  // 5050/100 truncated
}

TEST(HistogramTest, SingleSampleAndNegativeClamp) {
  Registry registry;
  auto& h = registry.histogram("h_us");
  h.record(-5);  // clamped to 0
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
}

TEST(HistogramTest, MergePreservesMoments) {
  Registry a, b;
  auto& ha = a.histogram("h_us");
  auto& hb = b.histogram("h_us");
  for (int v = 1; v <= 50; ++v) ha.record(v);
  for (int v = 51; v <= 100; ++v) hb.record(v);
  ha.merge_from(hb);
  EXPECT_EQ(ha.count(), 100);
  EXPECT_EQ(ha.sum(), 5050);
  EXPECT_EQ(ha.min(), 1);
  EXPECT_EQ(ha.max(), 100);
  EXPECT_EQ(ha.percentile(0.0), 1);
  EXPECT_EQ(ha.percentile(1.0), 100);
  // Merging an empty histogram is a no-op.
  Registry c;
  ha.merge_from(c.histogram("h_us"));
  EXPECT_EQ(ha.count(), 100);
  EXPECT_EQ(ha.min(), 1);
}

TEST(RegistryTest, MergeCreatesMissingEntries) {
  Registry a, b;
  a.counter("shared").inc(2);
  b.counter("shared").inc(3);
  b.counter("only_b").inc(7);
  b.histogram("h_us").record(10);
  a.merge_from(b);
  EXPECT_EQ(a.value("shared"), 5);
  EXPECT_EQ(a.value("only_b"), 7);
  ASSERT_NE(a.find_histogram("h_us"), nullptr);
  EXPECT_EQ(a.find_histogram("h_us")->count(), 1);
  // Lookups of unknown names are zero/null, not errors.
  EXPECT_EQ(a.value("never_registered"), 0);
  EXPECT_EQ(a.find_histogram("never_registered"), nullptr);
}

TEST(RegistryTest, DisabledRecordPathIsInertAndAllocationFree) {
  Registry registry(/*enabled=*/false);
  // Registration may allocate (handles are obtained once, at setup time).
  auto& counter = registry.counter("c");
  auto& histogram = registry.histogram("h_us");
  const std::size_t allocations_before = g_allocations;
  for (int i = 0; i < 10000; ++i) {
    counter.inc();
    histogram.record(i);
  }
  const std::size_t allocations_after = g_allocations;
  EXPECT_EQ(allocations_after, allocations_before)
      << "disabled record path must not allocate";
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(histogram.count(), 0);
}

TEST(RegistryTest, EnabledRecordPathIsAllocationFree) {
  Registry registry;
  auto& counter = registry.counter("c");
  auto& histogram = registry.histogram("h_us");
  // Warm up so that lazily-allocated internals (none expected) exist.
  counter.inc();
  histogram.record(1);
  const std::size_t allocations_before = g_allocations;
  for (int i = 0; i < 10000; ++i) {
    counter.inc();
    histogram.record(i);
  }
  EXPECT_EQ(g_allocations, allocations_before)
      << "hot record path must not allocate";
  EXPECT_EQ(counter.value(), 10001);
}

TEST(SpanTest, ManualLifecycle) {
  Registry registry;
  auto& h = registry.histogram("span.test_us");
  Span span(h);
  // Ending an un-begun span records nothing.
  EXPECT_EQ(span.end(100), -1);
  EXPECT_EQ(h.count(), 0);
  span.begin(100);
  EXPECT_TRUE(span.active());
  EXPECT_EQ(span.end(250), 150);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.max(), 150);
  // Cancel disarms without recording.
  span.begin(300);
  span.cancel();
  EXPECT_EQ(span.end(400), -1);
  EXPECT_EQ(h.count(), 1);
  // Re-arming an active span restarts it.
  span.begin(500);
  span.begin(600);
  EXPECT_EQ(span.end(650), 50);
}

TEST(JsonTest, DeterministicInsertionOrderedOutput) {
  auto obj = json::Value::object();
  obj.set("z", 1);
  obj.set("a", json::Value("text\"with\\escapes\n"));
  obj.set("z", 2);  // overwrite in place, order preserved
  auto arr = json::Value::array();
  arr.push(true).push(3.5).push(json::Value());
  obj.set("list", std::move(arr));
  EXPECT_EQ(obj.dump(0),
            "{\"z\": 2,\"a\": \"text\\\"with\\\\escapes\\n\","
            "\"list\": [true,3.5,null]}");
}

TEST(JsonTest, HistogramExportShape) {
  Registry registry;
  auto& h = registry.histogram("h_us");
  h.record(1);
  h.record(1000);
  const auto v = histogram_to_json(h);
  ASSERT_NE(v.find("count"), nullptr);
  ASSERT_NE(v.find("p50"), nullptr);
  ASSERT_NE(v.find("p99"), nullptr);
  ASSERT_NE(v.find("buckets"), nullptr);
  EXPECT_EQ(v.find("buckets")->size(), 2u);  // only non-empty buckets listed
}

}  // namespace
}  // namespace cht::metrics
