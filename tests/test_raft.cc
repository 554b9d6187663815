// Raft baseline: election safety, log replication, read correctness.
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "harness/cluster.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht {
namespace {

using harness::ClusterConfig;
using harness::RaftCluster;

ClusterConfig base_config(std::uint64_t seed = 3) {
  ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  return config;
}

TEST(RaftTest, ElectsExactlyOneLeaderPerTerm) {
  RaftCluster cluster(base_config(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(2));
  // Count leaders per term across the run's final state.
  std::map<std::int64_t, int> leaders_by_term;
  for (int i = 0; i < cluster.n(); ++i) {
    if (cluster.replica(i).role() == raft::RaftReplica::Role::kLeader) {
      ++leaders_by_term[cluster.replica(i).term()];
    }
  }
  for (const auto& [term, count] : leaders_by_term) {
    EXPECT_LE(count, 1) << "two leaders in term " << term;
  }
}

TEST(RaftTest, ReplicatesAndAppliesWrites) {
  RaftCluster cluster(base_config(), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  for (int i = 0; i < 10; ++i) {
    cluster.submit(i % cluster.n(),
                   object::KVObject::put("k" + std::to_string(i), "v"));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  cluster.run_for(Duration::seconds(1));  // let followers catch up
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica(i).applied_state().fingerprint(),
              cluster.replica(0).applied_state().fingerprint());
  }
}

TEST(RaftTest, LogsAreConsistentPrefixes) {
  RaftCluster cluster(base_config(17), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  for (int i = 0; i < 20; ++i) {
    cluster.submit(i % cluster.n(), object::KVObject::put("k", "v" + std::to_string(i)));
    cluster.run_for(Duration::millis(5));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  cluster.run_for(Duration::seconds(1));
  // Log matching property: committed prefixes agree everywhere.
  const auto& ref = cluster.replica(0).log();
  const std::int64_t ref_commit = cluster.replica(0).commit_index();
  for (int i = 1; i < cluster.n(); ++i) {
    const auto& log = cluster.replica(i).log();
    const std::int64_t upto =
        std::min(ref_commit, cluster.replica(i).commit_index());
    for (std::int64_t j = 0; j < upto; ++j) {
      EXPECT_EQ(log.at(static_cast<std::size_t>(j)),
                ref.at(static_cast<std::size_t>(j)))
          << "divergence at index " << j + 1 << " on replica " << i;
    }
  }
}

TEST(RaftTest, ReadIndexReadsAreLinearizable) {
  RaftCluster cluster(base_config(5), std::make_shared<object::KVObject>());
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
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(RaftTest, ReadsAlwaysGenerateMessages) {
  // The paper's Section 5 point: Raft reads are not local — every read
  // reaches the leader and triggers a majority round.
  RaftCluster cluster(base_config(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.leader();
  const int follower = (leader + 1) % cluster.n();
  const auto before = cluster.sim().network().stats().sent;
  cluster.submit(follower, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  const auto after = cluster.sim().network().stats().sent;
  // At least: forward to leader + heartbeat round (n-1) + acks + reply,
  // minus unrelated background heartbeats (bounded below conservatively).
  EXPECT_GE(after - before, 3);
}

TEST(RaftTest, SurvivesLeaderCrash) {
  RaftCluster cluster(base_config(11), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.submit(0, object::KVObject::put("a", "1"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  const int old_leader = cluster.leader();
  cluster.sim().crash(ProcessId(old_leader));
  const int submitter = (old_leader + 1) % cluster.n();
  cluster.submit(submitter, object::KVObject::put("b", "2"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));
  const int new_leader = cluster.leader();
  EXPECT_NE(new_leader, old_leader);
  EXPECT_GE(new_leader, 0);
  EXPECT_EQ(cluster.model().apply(
                const_cast<object::ObjectState&>(
                    cluster.replica(new_leader).applied_state()),
                object::KVObject::get("a")),
            "1");
}

TEST(RaftTest, LeaderLeaseModeServesReadsWithoutExtraRound) {
  RaftCluster cluster(base_config(), std::make_shared<object::RegisterObject>(),
                      raft::ReadMode::kLeaderLease);
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.leader();
  cluster.submit(leader, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_GE(cluster.replica(leader).metrics().value("reads.by_lease"), 1);
  // A leader-local lease read completes without any message exchange.
  const auto& record = cluster.history().ops().back();
  EXPECT_EQ(record.latency(), Duration::zero());
}

}  // namespace
}  // namespace cht
