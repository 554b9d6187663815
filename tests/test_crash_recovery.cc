// Crash-recovery integration tests: restart paths for the chtread stack,
// the Raft baseline (stable-storage replay) and the VR baseline (nonce
// recovery), driven through the harness clusters. These pin the lifecycle
// edges the chaos sweep only hits probabilistically: restart from an empty
// storage, restart while an election / view change is in flight, and
// durability of acked writes across a power cycle that loses unsynced
// writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "checker/linearizability.h"
#include "harness/cluster.h"
#include "leader/enhanced_leader.h"
#include "object/register_object.h"
#include "raft/raft.h"
#include "vr/vr.h"

namespace cht {
namespace {

harness::ClusterConfig config_with_seed(std::uint64_t seed) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  config.epsilon = Duration::millis(1);
  return config;
}

// --- chtread ---------------------------------------------------------------

TEST(CrashRecoveryTest, ChtreadAckedWriteSurvivesFollowerPowerCycle) {
  harness::Cluster cluster(config_with_seed(11),
                           std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  const int leader = cluster.steady_leader();
  cluster.submit(leader, object::RegisterObject::write("durable"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));

  const int victim = (leader + 1) % cluster.n();
  const auto target = cluster.replica(leader).snapshot().applied_upto;
  cluster.sim().crash(ProcessId(victim));
  cluster.run_for(Duration::millis(300));
  cluster.restart(victim);
  EXPECT_EQ(cluster.sim().incarnation(ProcessId(victim)), 1);

  const bool caught_up = cluster.sim().run_until(
      [&] { return cluster.replica(victim).snapshot().applied_upto >= target; },
      cluster.sim().now() + Duration::seconds(30));
  EXPECT_TRUE(caught_up) << "restarted follower never replayed to the "
                            "leader's pre-crash applied prefix";

  cluster.submit(leader, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  EXPECT_EQ(*cluster.history().ops().back().response, "durable");
  const auto verdict =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(verdict.linearizable);
}

TEST(CrashRecoveryTest, ChtreadEmptyStorageRestart) {
  // Crash a replica before it ever synced anything; on_restart must cope
  // with a storage holding no records and no log.
  harness::Cluster cluster(config_with_seed(12),
                           std::make_shared<object::RegisterObject>());
  cluster.sim().crash(ProcessId(4));
  cluster.run_for(Duration::millis(50));
  cluster.restart(4);

  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.submit(cluster.steady_leader(),
                 object::RegisterObject::write("post-restart"));
  EXPECT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
}

// --- Raft ------------------------------------------------------------------

TEST(CrashRecoveryTest, RaftMinorityPowerCycleKeepsAckedWrites) {
  harness::RaftCluster cluster(config_with_seed(21),
                               std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  const int leader = cluster.leader();
  cluster.submit(leader, object::RegisterObject::write("acked"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));

  // Bounce two followers (a full minority) with unsynced-write loss.
  const int f1 = (leader + 1) % cluster.n();
  const int f2 = (leader + 2) % cluster.n();
  const auto commit = cluster.replica(leader).commit_index();
  cluster.sim().crash(ProcessId(f1));
  cluster.sim().crash(ProcessId(f2));
  cluster.run_for(Duration::millis(300));
  cluster.restart(f1);
  cluster.restart(f2);
  // The persistent-state replay happens inside on_restart: the log prefix
  // that was synced before the AppendReply left must already be back.
  EXPECT_GE(cluster.replica(f1).term(), 1);
  const bool caught_up = cluster.sim().run_until(
      [&] {
        return cluster.replica(f1).commit_index() >= commit &&
               cluster.replica(f2).commit_index() >= commit;
      },
      cluster.sim().now() + Duration::seconds(30));
  EXPECT_TRUE(caught_up);

  cluster.submit(leader, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  EXPECT_EQ(*cluster.history().ops().back().response, "acked");
}

TEST(CrashRecoveryTest, RaftRestartDuringElection) {
  harness::RaftCluster cluster(config_with_seed(22),
                               std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  const int old_leader = cluster.leader();
  const auto old_term = cluster.replica(old_leader).term();

  cluster.sim().crash(ProcessId(old_leader));
  // Long enough for election timeouts to fire so the restart lands mid- or
  // post-election, not in a quiet cluster.
  cluster.run_for(cluster.replica_config().election_timeout_max * 2);
  cluster.restart(old_leader);
  // currentTerm was synced before the old incarnation ever voted, so the
  // replay cannot regress below it — the restarted node must not disrupt
  // the new term with stale-term candidacy.
  EXPECT_GE(cluster.replica(old_leader).term(), old_term);
  EXPECT_EQ(cluster.replica(old_leader).role(),
            raft::RaftReplica::Role::kFollower);

  ASSERT_TRUE(cluster.await_leader(Duration::seconds(30)));
  cluster.submit(cluster.leader(), object::RegisterObject::write("new-era"));
  EXPECT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
}

// --- VR --------------------------------------------------------------------

TEST(CrashRecoveryTest, VrFollowerRecoversViaNonceProtocol) {
  harness::VrCluster cluster(config_with_seed(31),
                             std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  const int primary = cluster.leader();
  cluster.submit(primary, object::RegisterObject::write("replicated"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));

  const int victim = (primary + 1) % cluster.n();
  const auto commit = cluster.replica(primary).commit_number();
  cluster.sim().crash(ProcessId(victim));
  cluster.run_for(Duration::millis(300));
  cluster.restart(victim);
  // VR keeps no stable storage: the fresh incarnation starts in the
  // recovering state and rebuilds its log from a quorum of normal peers.
  EXPECT_EQ(cluster.replica(victim).status(),
            vr::VrReplica::Status::kRecovering);
  const bool recovered = cluster.sim().run_until(
      [&] {
        return cluster.replica(victim).status() ==
                   vr::VrReplica::Status::kNormal &&
               cluster.replica(victim).commit_number() >= commit;
      },
      cluster.sim().now() + Duration::seconds(30));
  EXPECT_TRUE(recovered) << "nonce recovery never completed";

  cluster.submit(cluster.leader(), object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  EXPECT_EQ(*cluster.history().ops().back().response, "replicated");
}

TEST(CrashRecoveryTest, VrRestartDuringViewChange) {
  harness::VrCluster cluster(config_with_seed(32),
                             std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  const int old_primary = cluster.leader();
  cluster.submit(old_primary, object::RegisterObject::write("v0"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));

  cluster.sim().crash(ProcessId(old_primary));
  // Let the backups notice the dead primary and start the view change, then
  // power the old primary back up while it is (or was just) in flight. Its
  // recovery must wait out the view change: responses only come from
  // normal-status replicas, so it rejoins in the new view, not the old one.
  cluster.run_for(cluster.replica_config().view_change_timeout * 2);
  cluster.restart(old_primary);

  ASSERT_TRUE(cluster.await_leader(Duration::seconds(30)));
  const bool rejoined = cluster.sim().run_until(
      [&] {
        return cluster.replica(old_primary).status() ==
               vr::VrReplica::Status::kNormal;
      },
      cluster.sim().now() + Duration::seconds(30));
  EXPECT_TRUE(rejoined);
  EXPECT_GT(cluster.replica(old_primary).view(), 0);

  cluster.submit(cluster.leader(), object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  EXPECT_EQ(*cluster.history().ops().back().response, "v0");
}

// --- ELS counter persistence -----------------------------------------------

// Hosts one enhanced-leader service whose believed leader the test controls;
// a fresh incarnation recovers the persisted support counter on restart.
class ElsRecoveryHost : public sim::Process {
 public:
  ElsRecoveryHost(leader::EnhancedLeaderConfig config, ProcessId believed)
      : els_(*this, [this] { return believed_; }, config), believed_(believed) {}
  void on_start() override { els_.start(); }
  void on_restart() override { els_.recover(); }
  void on_message(const sim::Message& message) override {
    els_.handle_message(message);
  }
  void set_believed(ProcessId p) { believed_ = p; }

 private:
  leader::EnhancedLeaderService els_;
  ProcessId believed_;
};

class GrantSink : public sim::Process {
 public:
  void on_message(const sim::Message& message) override {
    grants.push_back(message.as<leader::SupportGrant>());
  }
  std::vector<leader::SupportGrant> grants;
};

TEST(CrashRecoveryTest, ElsCounterBumpLostInCrashNeverRegressesAnEpoch) {
  // The supporter switches leaders and crashes while the counter bump's
  // covering sync is still in flight; key_loss = 1.0 guarantees the
  // unsynced counter write is gone on restart. Because the first grant
  // after a bump only leaves once that sync completes, no delivered grant
  // ever carries a counter the restart can forget — so the evidence
  // AmLeader(t1, t2) builds from delivered grants never regresses: every
  // post-restart grant uses a strictly larger counter and starts strictly
  // after every pre-crash interval.
  sim::SimulationConfig config;
  config.seed = 41;
  config.epsilon = Duration::zero();
  config.network.gst = RealTime::zero();
  config.network.delta = Duration::millis(1);
  config.network.delta_min = Duration::micros(500);
  config.storage.sync_latency = Duration::millis(4);
  config.storage.unsynced_key_loss = 1.0;

  leader::EnhancedLeaderConfig els_config;
  els_config.support_interval = Duration::millis(5);
  els_config.support_duration = Duration::millis(40);

  sim::Simulation sim(config);
  sim.add_process(
      std::make_unique<ElsRecoveryHost>(els_config, ProcessId(1)));
  sim.add_process(std::make_unique<GrantSink>());
  sim.add_process(std::make_unique<GrantSink>());
  sim.start();

  // Grants to p1 flow once the first bump's covering sync completes (the
  // per-process drawn latency is in [3ms, 5ms]); the counter is durable.
  sim.run_until(RealTime::zero() + Duration::millis(31));
  auto& p1 = sim.process_as<GrantSink>(ProcessId(1));
  ASSERT_FALSE(p1.grants.empty());

  // Switch to p2. The tick at t=35ms bumps the counter and requests a sync
  // that completes no earlier than t=38ms; crashing at 36.5ms lands inside
  // that window for every possible latency draw, so the bump write is lost
  // and the pending grant dies with the incarnation.
  sim.process_as<ElsRecoveryHost>(ProcessId(0)).set_believed(ProcessId(2));
  sim.run_until(RealTime::zero() + Duration::micros(36'500));
  sim.crash(ProcessId(0));
  auto& p2 = sim.process_as<GrantSink>(ProcessId(2));
  EXPECT_TRUE(p2.grants.empty())
      << "a grant carrying an unsynced counter must never be delivered";

  LocalTime pre_crash_max_end = LocalTime::min();
  std::int64_t pre_crash_max_counter = 0;
  for (const auto& g : p1.grants) {
    pre_crash_max_end = std::max(pre_crash_max_end, g.end);
    pre_crash_max_counter = std::max(pre_crash_max_counter, g.counter);
  }

  sim.restart(ProcessId(0),
              std::make_unique<ElsRecoveryHost>(els_config, ProcessId(2)));
  sim.run_until(sim.now() + Duration::millis(60));

  ASSERT_FALSE(p2.grants.empty()) << "restarted supporter never granted";
  for (const auto& g : p2.grants) {
    EXPECT_GT(g.start, pre_crash_max_end)
        << "a post-restart grant overlaps a pre-crash interval; AmLeader "
           "could stitch the two incarnations together";
    EXPECT_GT(g.counter, pre_crash_max_counter)
        << "the recovered counter regressed below a delivered grant";
  }
}

}  // namespace
}  // namespace cht
