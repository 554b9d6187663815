// Robustness under clock desynchronization (paper Section 1): RMW operations
// stay linearizable no matter what the clocks do; reads may stall (fast
// clock: leases look expired) or return stale states (slow clock + missed
// messages: leases look valid beyond the leader's conservative wait), and
// become current again once synchrony is restored.
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "harness/cluster.h"
#include "object/register_object.h"

namespace cht {
namespace {

using harness::Cluster;
using harness::ClusterConfig;

ClusterConfig robust_config(std::uint64_t seed) {
  ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  config.epsilon = Duration::millis(1);
  // These two scenarios document the *unguarded* failure modes the paper
  // accepts under broken clocks (and that the clock-health guard exists to
  // bound). With the guard on, the frozen-clock victim degrades its reads
  // and the stale read never happens — that contrast is tested in
  // test_clock_guard.cc.
  config.clock_guard = false;
  return config;
}

// Slow (frozen) clock + partition: the victim keeps believing its lease is
// valid and serves stale reads — exactly the failure mode the paper accepts
// under broken clocks — while the RMW sub-history stays linearizable.
TEST(RobustnessTest, SlowClockYieldsStaleReadsButRmwsStayLinearizable) {
  Cluster cluster(robust_config(51), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int victim = (leader + 1) % cluster.n();
  // Seed a value everyone has applied.
  cluster.submit(leader, object::RegisterObject::write("old"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  cluster.run_for(cluster.replica_config().lease_renew_interval * 3);

  // Break the model: freeze the victim's clock (maximally slow) and cut it
  // off so it misses the Prepares/Commits that would update it.
  cluster.sim().set_clock_offset(ProcessId(victim), Duration::seconds(-3600));
  cluster.sim().network().set_process_isolated(ProcessId(victim), true,
                                               cluster.n());
  // Commit new values. The leader waits out the victim's lease *on its own
  // clock* (the guarantee only covers skew <= epsilon), then proceeds.
  for (int i = 0; i < 3; ++i) {
    cluster.submit(leader, object::RegisterObject::write("new" + std::to_string(i)));
    ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)));
  }
  // The victim still considers its lease valid and answers locally: stale.
  cluster.submit(victim, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_EQ(*cluster.history().ops().back().response, "old");

  // Full history: NOT linearizable (the stale read started after "new2"
  // completed). RMW sub-history: linearizable.
  const auto full =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_FALSE(full.linearizable);
  const auto rmw = checker::check_rmw_subhistory_linearizable(
      cluster.model(), cluster.history().ops());
  EXPECT_TRUE(rmw.linearizable) << rmw.explanation;
}

// Fast clock: every lease looks expired, so reads stall — they never return
// wrong values, and they complete once synchrony is restored.
TEST(RobustnessTest, FastClockStallsReadsUntilResync) {
  Cluster cluster(robust_config(52), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int victim = (leader + 1) % cluster.n();
  cluster.submit(leader, object::RegisterObject::write("current"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));

  const Duration skip = Duration::seconds(30);
  cluster.sim().set_clock_offset(ProcessId(victim), skip);
  cluster.submit(victim, object::RegisterObject::read());
  cluster.run_for(Duration::seconds(5));
  // The read is stalled: all leases look expired on the fast clock.
  EXPECT_EQ(cluster.completed(), cluster.submitted() - 1);

  // Restore the offset. The clock clamps at its high-water mark until real
  // time catches up (~30s), after which fresh leases are valid again and the
  // read completes with the *current* value.
  cluster.sim().set_clock_offset(ProcessId(victim), Duration::zero());
  ASSERT_TRUE(cluster.await_quiesce(skip + Duration::seconds(10)));
  EXPECT_EQ(*cluster.history().ops().back().response, "current");
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

// Randomized clock-desync chaos (skew beyond epsilon under concurrent
// workloads, with the RMW sub-history invariant) lives in the unified chaos
// matrix: see test_chaos_matrix.cc, profile "clock-storm". This file keeps
// only the two *directed* scenarios above, whose setups (a frozen victim
// clock behind a partition; a fast clock that must clamp at its high-water
// mark) are too specific for a seed-driven nemesis to hit reliably.

}  // namespace
}  // namespace cht
