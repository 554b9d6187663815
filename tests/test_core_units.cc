// Unit tests for the core wire/data types and configuration relationships.
#include <gtest/gtest.h>

#include "core/config.h"
#include "core/messages.h"
#include "object/register_object.h"

namespace cht::core {
namespace {

BatchOp op(int proc, std::int64_t seq, const std::string& value) {
  return BatchOp{OperationId{ProcessId(proc), seq},
                 object::RegisterObject::write(value)};
}

TEST(BatchTest, CanonicalizeSortsById) {
  Batch batch{op(2, 1, "c"), op(0, 5, "a"), op(1, 1, "b")};
  canonicalize(batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id.process, ProcessId(0));
  EXPECT_EQ(batch[1].id.process, ProcessId(1));
  EXPECT_EQ(batch[2].id.process, ProcessId(2));
}

TEST(BatchTest, CanonicalizeDeduplicates) {
  Batch batch{op(0, 1, "a"), op(0, 1, "a"), op(1, 1, "b")};
  canonicalize(batch);
  EXPECT_EQ(batch.size(), 2u);
}

TEST(BatchTest, SameIdOrderedByOpContent) {
  // BatchOp ordering is (id, op); equality needs both.
  Batch a{op(0, 1, "x")};
  Batch b{op(0, 1, "x")};
  EXPECT_EQ(a, b);
  Batch c{op(0, 1, "y")};
  EXPECT_NE(a, c);
}

TEST(EstimateTest, FreshnessIsLexicographic) {
  Estimate older{{}, LocalTime::micros(100), 7};
  Estimate newer_time{{}, LocalTime::micros(200), 3};
  Estimate newer_batch{{}, LocalTime::micros(100), 8};
  EXPECT_LT(older.freshness(), newer_time.freshness());
  EXPECT_LT(older.freshness(), newer_batch.freshness());
  // Leader time dominates the batch number.
  EXPECT_LT(newer_batch.freshness(), newer_time.freshness());
}

TEST(ConfigTest, DefaultsScaleWithDelta) {
  const auto small = Config::defaults_for(Duration::millis(1), Duration::micros(100));
  const auto large = Config::defaults_for(Duration::millis(100), Duration::millis(10));
  EXPECT_EQ(small.lease_period, Duration::millis(12));
  EXPECT_EQ(large.lease_period, Duration::millis(1200));
  // Relationships the protocol's liveness depends on.
  for (const auto& c : {small, large}) {
    EXPECT_LT(c.lease_renew_interval, c.lease_period);
    // Against the replica's tick, which runs every delta.
    EXPECT_GT(c.els.support_duration, 2 * c.delta + c.delta);
    EXPECT_GT(c.omega.timeout, c.delta + c.delta + c.epsilon);
    EXPECT_EQ(c.commit_gate, CommitGate::kLeaseholders);
    EXPECT_EQ(c.read_policy, ReadPolicy::kLocalLease);
    EXPECT_EQ(c.commit_wait, Duration::zero());
  }
}

TEST(OperationIdTest, OrderingAndHash) {
  const OperationId a{ProcessId(0), 1};
  const OperationId b{ProcessId(0), 2};
  const OperationId c{ProcessId(1), 1};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_EQ(std::hash<OperationId>{}(a), std::hash<OperationId>{}(OperationId{ProcessId(0), 1}));
}

}  // namespace
}  // namespace cht::core
