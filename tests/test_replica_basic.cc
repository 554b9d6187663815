// Basic end-to-end behaviour of the replication algorithm on a synchronous
// (post-GST from the start) network.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "checker/linearizability.h"
#include "harness/cluster.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht {
namespace {

using harness::Cluster;
using harness::ClusterConfig;

ClusterConfig small_cluster() {
  ClusterConfig config;
  config.n = 5;
  config.seed = 7;
  config.delta = Duration::millis(10);
  config.epsilon = Duration::millis(1);
  config.gst = RealTime::zero();
  return config;
}

TEST(ReplicaBasicTest, ElectsASteadyLeader) {
  Cluster cluster(small_cluster(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  const int leader = cluster.steady_leader();
  ASSERT_GE(leader, 0);
  // Exactly one steady leader.
  int count = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    if (cluster.replica(i).is_leader()) ++count;
  }
  EXPECT_EQ(count, 1);
}

// One timer per replica per delta: the tick runs Omega, the ELS renewal,
// the leader check or the steady leader's loop, every resend and gap fill.
// Once a cluster is idle and converged, no other timer fires.
TEST(ReplicaBasicTest, IdleClusterFiresOneTickPerReplicaPerDelta) {
  Cluster cluster(small_cluster(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  sim::Simulation& sim = cluster.sim();
  // Start off the timer grid, well after the reign's NoOp has committed.
  sim.run_until(RealTime::zero() + Duration::micros(2'002'500));
  const Duration delta = cluster.replica_config().delta;
  constexpr int kIntervals = 100;
  const RealTime end = sim.now() + kIntervals * delta;
  const auto& stats = sim.network().stats();
  const std::int64_t delivered = stats.delivered;
  std::int64_t events = 0;
  while (sim.queue().next_event_time() <= end) {
    sim.step();
    ++events;
  }
  const std::int64_t timers = events - (stats.delivered - delivered);
  EXPECT_EQ(timers, kIntervals * cluster.n())
      << "expected one tick per replica per delta";
}

// Gap fill is for lost or late Commits. Under a light, loss-free write load
// (one write per 10 delta, as in E1) no follower ever asks for a batch: the
// leader's idle lease renewals leave on the replicas' shared tick grid, so a
// LeaseGrant naming batch k cannot reach a follower's tick before Commit(k).
TEST(ReplicaBasicTest, LightWriteLoadSendsNoBatchRequests) {
  Cluster cluster(small_cluster(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const auto& stats = cluster.sim().network().stats();
  const std::int64_t requests = stats.sent_of("core.batchrequest");
  constexpr int kWrites = 50;
  for (int i = 0; i < kWrites; ++i) {
    cluster.submit(i % cluster.n(),
                   object::RegisterObject::write("v" + std::to_string(i)));
    cluster.run_for(10 * cluster.replica_config().delta);
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_EQ(cluster.completed(), static_cast<std::size_t>(kWrites));
  EXPECT_EQ(stats.sent_of("core.batchrequest") - requests, 0);
}

TEST(ReplicaBasicTest, CommitsAnRmwAndRespondsOnce) {
  Cluster cluster(small_cluster(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.submit(1, object::RegisterObject::write("hello"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_EQ(cluster.completed(), 1u);
  const auto& record = cluster.history().ops().front();
  EXPECT_EQ(*record.response, "ok");
}

TEST(ReplicaBasicTest, ReadSeesCommittedWrite) {
  Cluster cluster(small_cluster(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.submit(1, object::RegisterObject::write("v1"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  // Let the new batch's lease propagate so every process can read it.
  cluster.run_for(cluster.replica_config().lease_renew_interval * 3);
  for (int i = 0; i < cluster.n(); ++i) {
    cluster.submit(i, object::RegisterObject::read());
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  for (const auto& op : cluster.history().ops()) {
    if (cluster.model().is_read(op.op)) {
      EXPECT_EQ(*op.response, "v1");
    }
  }
}

TEST(ReplicaBasicTest, AllReplicasConvergeToSameState) {
  Cluster cluster(small_cluster(), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  for (int i = 0; i < 20; ++i) {
    cluster.submit(i % cluster.n(),
                   object::KVObject::put("k" + std::to_string(i % 4),
                                         "v" + std::to_string(i)));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  // Allow commit rebroadcast to reach everyone.
  cluster.run_for(Duration::seconds(1));
  const std::string expect = cluster.replica(0).applied_state().fingerprint();
  for (int i = 1; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica(i).applied_state().fingerprint(), expect)
        << "replica " << i;
    EXPECT_EQ(cluster.replica(i).applied_upto(),
              cluster.replica(0).applied_upto());
  }
}

TEST(ReplicaBasicTest, HistoryIsLinearizable) {
  Cluster cluster(small_cluster(), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < cluster.n(); ++i) {
      if ((round + i) % 3 == 0) {
        cluster.submit(i, object::KVObject::put(
                              "k", "r" + std::to_string(round) + "p" +
                                       std::to_string(i)));
      } else {
        cluster.submit(i, object::KVObject::get("k"));
      }
    }
    cluster.run_for(Duration::millis(25));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(ReplicaBasicTest, LeaderReadsAreNonBlocking) {
  Cluster cluster(small_cluster(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));  // fully stabilized
  const int leader = cluster.steady_leader();
  ASSERT_GE(leader, 0);
  auto& metrics = cluster.replica(leader).metrics();
  const auto blocked_before = metrics.value("reads_blocked");
  const auto completed_before = metrics.value("reads_completed");
  for (int i = 0; i < 50; ++i) {
    cluster.submit(leader, object::RegisterObject::read());
    cluster.run_for(Duration::millis(1));
  }
  EXPECT_EQ(metrics.value("reads_blocked") - blocked_before, 0);
  EXPECT_EQ(metrics.value("reads_completed") - completed_before, 50);
}

TEST(ReplicaBasicTest, FollowerReadsAreNonBlockingWithoutConflicts) {
  Cluster cluster(small_cluster(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  int blocked = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < cluster.n(); ++i) {
      if (i == leader) continue;
      const auto before = cluster.replica(i).metrics().value("reads_blocked");
      cluster.submit(i, object::RegisterObject::read());
      blocked += static_cast<int>(
          cluster.replica(i).metrics().value("reads_blocked") - before);
    }
    cluster.run_for(Duration::millis(2));
  }
  EXPECT_EQ(blocked, 0);
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
}

}  // namespace
}  // namespace cht
