// The Section-5 mechanism variants: leader-forwarded reads, conflict-blind
// blocking, all-ack commits, Spanner-style commit wait — and the
// deliberately unsafe local read used by the lower-bound demonstration.
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "core/replica.h"
#include "harness/cluster.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht {
namespace {

using harness::ClusterConfig;

ClusterConfig base(std::uint64_t seed) {
  ClusterConfig c;
  c.n = 5;
  c.seed = seed;
  c.delta = Duration::millis(10);
  return c;
}

TEST(PolicyTest, LeaderForwardReadsAreCorrectButNotLocal) {
  harness::Cluster cluster(
      base(31), std::make_shared<object::RegisterObject>(),
      core::ConfigOverrides{.read_policy = core::ReadPolicy::kLeaderForward});
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  cluster.submit(0, object::RegisterObject::write("v"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  const int leader = cluster.steady_leader();
  const int follower = (leader + 1) % cluster.n();
  const auto before = cluster.sim().network().stats().sent_of(
      core::msg::kReadRequest);
  cluster.submit(follower, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_EQ(*cluster.history().ops().back().response, "v");
  EXPECT_GT(cluster.sim().network().stats().sent_of(core::msg::kReadRequest),
            before);
  // Forwarded reads take at least a round trip.
  EXPECT_GE(cluster.history().ops().back().latency(),
            2 * Duration::micros(500));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(PolicyTest, AnyPendingBlocksIsConflictBlind) {
  // Under kAnyPendingBlocks, a read on a *different* key still blocks when a
  // write is in flight (PQL-style), unlike the paper's algorithm.
  harness::Cluster cluster(
      base(32), std::make_shared<object::KVObject>(),
      core::ConfigOverrides{.read_policy =
                                core::ReadPolicy::kAnyPendingBlocks});
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int follower = (leader + 1) % cluster.n();
  int blocked = 0;
  for (int i = 0; i < 50; ++i) {
    cluster.submit((leader + 2) % cluster.n(),
                   object::KVObject::put("hot", std::to_string(i)));
    cluster.run_for(Duration::millis(2));
    const auto before = cluster.replica(follower).metrics().value("reads_blocked");
    cluster.submit(follower, object::KVObject::get("cold"));
    blocked += static_cast<int>(
        cluster.replica(follower).metrics().value("reads_blocked") - before);
    cluster.run_for(Duration::millis(20));
  }
  EXPECT_GT(blocked, 10) << "conflict-blind reads should often block";
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));
}

TEST(PolicyTest, AllAckGatePaysForCrashedProcessEveryWrite) {
  // Megastore-style: no leaseholder-set memory. Every write after the crash
  // pays the full invalidation wait.
  harness::Cluster cluster(
      base(33), std::make_shared<object::RegisterObject>(),
      core::ConfigOverrides{.commit_gate = core::CommitGate::kAllProcesses});
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  cluster.sim().crash(ProcessId((leader + 1) % cluster.n()));
  const int submitter = (leader + 2) % cluster.n();
  for (int i = 0; i < 3; ++i) {
    const RealTime t = cluster.sim().now();
    cluster.submit(submitter, object::RegisterObject::write(std::to_string(i)));
    ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
    const Duration took = cluster.sim().now() - t;
    // The expiry wait is max(t, ts_last_lease) + LeasePeriod + eps, and the
    // last grant may predate the write by up to a renewal interval.
    EXPECT_GT(took, cluster.replica_config().lease_period -
                        2 * cluster.replica_config().lease_renew_interval)
        << "write " << i << " should wait out the crashed process every time";
  }
}

TEST(PolicyTest, CommitWaitAddsEpsilonToEveryWrite) {
  const Duration wait = Duration::millis(25);
  harness::Cluster cluster(base(34), std::make_shared<object::RegisterObject>(),
                           core::ConfigOverrides{.commit_wait = wait});
  harness::Cluster baseline(base(34),
                            std::make_shared<object::RegisterObject>());
  for (auto* c : {&cluster, &baseline}) {
    ASSERT_TRUE(c->await_steady_leader(Duration::seconds(5)));
    c->run_for(Duration::seconds(1));
  }
  auto write_latency = [](harness::Cluster& c) {
    const RealTime t = c.sim().now();
    c.submit(1, object::RegisterObject::write("x"));
    EXPECT_TRUE(c.await_quiesce(Duration::seconds(10)));
    return c.sim().now() - t;
  };
  const Duration with_wait = write_latency(cluster);
  const Duration without = write_latency(baseline);
  // Commit-wait overlaps the tail of the commit protocol, so the measurable
  // floor is a bit below the full `wait`.
  EXPECT_GE(with_wait, without + wait / 2);
}

TEST(PolicyTest, SafeTimeReadsBlockEvenWithoutWrites) {
  // Spanner option (b): a read waits for the next safe-time beacon past its
  // timestamp — so follower reads always block, even on an idle object.
  harness::Cluster cluster(
      base(36), std::make_shared<object::RegisterObject>(),
      core::ConfigOverrides{.read_policy = core::ReadPolicy::kSafeTime});
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int follower = (leader + 1) % cluster.n();
  cluster.submit(leader, object::RegisterObject::write("v"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));  // idle: no writes in flight
  int blocked = 0;
  for (int i = 0; i < 20; ++i) {
    const auto before = cluster.replica(follower).metrics().value("reads_blocked");
    cluster.submit(follower, object::RegisterObject::read());
    blocked += static_cast<int>(
        cluster.replica(follower).metrics().value("reads_blocked") - before);
    cluster.run_for(Duration::millis(40));  // > renewal interval
  }
  EXPECT_EQ(blocked, 20) << "every safe-time follower read should block";
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  // ...and they are still correct.
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(PolicyTest, UnsafeLocalReadsViolateLinearizability) {
  // The lower-bound demonstration (Section 4): reads that answer instantly
  // from local state with no blocking produce stale values that the checker
  // catches. Scan seeds until the race materializes (deterministically).
  bool violation_found = false;
  for (std::uint64_t seed = 1; seed <= 20 && !violation_found; ++seed) {
    harness::Cluster cluster(
        base(seed), std::make_shared<object::RegisterObject>(),
        core::ConfigOverrides{.read_policy = core::ReadPolicy::kUnsafeLocal});
    if (!cluster.await_steady_leader(Duration::seconds(5))) continue;
    cluster.run_for(Duration::seconds(1));
    const int leader = cluster.steady_leader();
    const int follower = (leader + 1) % cluster.n();
    for (int i = 0; i < 40; ++i) {
      cluster.submit(leader, object::RegisterObject::write(std::to_string(i)));
      cluster.run_for(Duration::millis(3));
      cluster.submit(follower, object::RegisterObject::read());
      cluster.run_for(Duration::millis(15));
    }
    cluster.await_quiesce(Duration::seconds(20));
    const auto result =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    if (!result.linearizable) violation_found = true;
  }
  EXPECT_TRUE(violation_found)
      << "unsafe local reads should produce a linearizability violation";
}

}  // namespace
}  // namespace cht
