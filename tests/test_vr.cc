// Viewstamped Replication baseline: normal operation, view changes, the
// static-successor weakness the paper points out, and linearizability.
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "harness/cluster.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht {
namespace {

using harness::ClusterConfig;
using harness::VrCluster;

ClusterConfig base_config(std::uint64_t seed = 3) {
  ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  return config;
}

TEST(VrTest, StartsInViewZeroWithPrimaryP0) {
  VrCluster cluster(base_config(), std::make_shared<object::RegisterObject>());
  cluster.run_for(Duration::millis(100));
  EXPECT_EQ(cluster.leader(), 0);
  EXPECT_EQ(cluster.replica(0).view(), 0);
}

TEST(VrTest, CommitsAndApplies) {
  VrCluster cluster(base_config(), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  for (int i = 0; i < 10; ++i) {
    cluster.submit(i % cluster.n(),
                   object::KVObject::put("k" + std::to_string(i), "v"));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  cluster.run_for(Duration::seconds(1));
  for (int i = 1; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica(i).applied_state().fingerprint(),
              cluster.replica(0).applied_state().fingerprint());
  }
}

TEST(VrTest, ViewChangeOnPrimaryCrash) {
  VrCluster cluster(base_config(7), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.submit(1, object::KVObject::put("k", "before"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  cluster.sim().crash(ProcessId(0));
  // The next view's primary is p1 (static order).
  const RealTime deadline = cluster.sim().now() + Duration::seconds(30);
  ASSERT_TRUE(cluster.sim().run_until(
      [&] { return cluster.leader() == 1; }, deadline));
  cluster.submit(2, object::KVObject::put("k", "after"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(VrTest, CommittedDataSurvivesViewChange) {
  VrCluster cluster(base_config(9), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.submit(1, object::KVObject::put("k", "must-survive"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  cluster.sim().crash(ProcessId(0));
  cluster.run_for(Duration::seconds(2));
  cluster.submit(2, object::KVObject::get("k"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  EXPECT_EQ(*cluster.history().ops().back().response, "must-survive");
}

// The paper's S5 point: with the static view order, if the next several
// successors are partitioned away from the majority, VR cycles through
// ineffective views before recovering.
TEST(VrTest, CyclesThroughIneffectiveViewsWhenSuccessorsPartitioned) {
  // n = 7 so that a majority (4) stays connected after isolating the two
  // successors and crashing the primary.
  ClusterConfig config = base_config(11);
  config.n = 7;
  VrCluster cluster(config, std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  // Cut p1 and p2 (the next two static successors) off, then crash p0.
  cluster.sim().network().set_process_isolated(ProcessId(1), true, cluster.n());
  cluster.sim().network().set_process_isolated(ProcessId(2), true, cluster.n());
  cluster.sim().crash(ProcessId(0));
  const RealTime crash_at = cluster.sim().now();
  const RealTime deadline = crash_at + Duration::seconds(60);
  int new_primary = -1;
  ASSERT_TRUE(cluster.sim().run_until(
      [&] {
        new_primary = cluster.leader();
        return new_primary >= 3;
      },
      deadline));
  // Views 1 (p1) and 2 (p2) must have been skipped as ineffective: the
  // first working view is >= 3.
  EXPECT_GE(cluster.replica(new_primary).view(), 3);
  // And recovery took at least two extra view-change timeouts.
  EXPECT_GT(cluster.sim().now() - crash_at,
            2 * cluster.replica_config().view_change_timeout);
  cluster.submit(3, object::KVObject::put("k", "recovered"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
}

TEST(VrTest, MixedWorkloadLinearizable) {
  VrCluster cluster(base_config(13), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < cluster.n(); ++i) {
      if ((round + i) % 3 == 0) {
        cluster.submit(i, object::KVObject::put("k", "r" + std::to_string(round) +
                                                         "p" + std::to_string(i)));
      } else {
        cluster.submit(i, object::KVObject::get("k"));
      }
    }
    cluster.run_for(Duration::millis(30));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(VrTest, ReadsAreNeitherLocalNorFast) {
  // VR treats reads like writes: a follower read costs a request to the
  // primary plus a full Prepare round.
  VrCluster cluster(base_config(15), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const auto before = cluster.sim().network().stats().sent;
  cluster.submit(2, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_GE(cluster.sim().network().stats().sent - before, 3);
  EXPECT_GT(cluster.history().ops().back().latency(), Duration::zero());
}

}  // namespace
}  // namespace cht
