// harness::StackCluster<Stack> is the one harness every protocol stack runs
// under. These typed tests hold all three traits types to the same contract:
// a leader emerges; both submit paths record the history, with ids on RMWs
// only; a client homed on a follower is served there or redirected to the
// leader, as the stack's kAnyReplicaServes says; a crashed leader is
// replaced and restarts; merged metrics carry the storage counters and the
// leadership counter; leadership_changes() is that counter's cluster-wide
// sum; and a write workload keeps the protocol invariants. The invariants'
// checks themselves, harness::safety_violations, are shown to fire on
// hand-built replicas.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/messages.h"
#include "harness/cluster.h"
#include "metrics/registry.h"
#include "object/register_object.h"
#include "raft/raft.h"

namespace cht {
namespace {

harness::ClusterConfig config_with_clients(int clients) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = 5;
  config.delta = Duration::millis(10);
  config.clients = clients;
  return config;
}

bool has_counter(const metrics::Registry& registry, const std::string& name) {
  bool found = false;
  registry.for_each_counter(
      [&](const metrics::Counter& c) { found = found || c.name() == name; });
  return found;
}

template <class Stack>
class StackClusterTest : public ::testing::Test {};

class StackNames {
 public:
  template <class Stack>
  static std::string GetName(int) {
    return Stack::name(typename Stack::Options{});
  }
};

using Stacks = ::testing::Types<harness::ChtreadStack, harness::RaftStack,
                                harness::VrStack>;
TYPED_TEST_SUITE(StackClusterTest, Stacks, StackNames);

TYPED_TEST(StackClusterTest, DirectPathRecordsHistoryWithIdsOnRmwsOnly) {
  harness::StackCluster<TypeParam> cluster(
      config_with_clients(0), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  const int leader = cluster.leader();
  const int follower = (leader + 1) % cluster.n();
  std::string acked;
  cluster.submit(leader, object::RegisterObject::write("v1"),
                 [&](const object::Response& r) { acked = r; });
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  cluster.submit(follower, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));

  const auto& ops = cluster.history().ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(cluster.submitted(), 2u);
  EXPECT_EQ(cluster.completed(), 2u);
  EXPECT_EQ(ops[0].process, ProcessId(leader));
  ASSERT_TRUE(ops[0].completed());
  EXPECT_EQ(acked, *ops[0].response);
  EXPECT_EQ(ops[0].id.process, ProcessId(leader));
  EXPECT_EQ(ops[1].process, ProcessId(follower));
  EXPECT_EQ(*ops[1].response, "v1");
  EXPECT_EQ(ops[1].id, OperationId{});
}

TYPED_TEST(StackClusterTest, ClientPathRecordsHistoryWithIdsOnRmwsOnly) {
  harness::StackCluster<TypeParam> cluster(
      config_with_clients(5), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.client_path());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  cluster.submit(1, object::RegisterObject::write("v1"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  cluster.submit(2, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));

  const auto& ops = cluster.history().ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].process, cluster.client(1).id());
  EXPECT_EQ(ops[0].id.process, cluster.client(1).id());
  EXPECT_EQ(ops[1].process, cluster.client(2).id());
  EXPECT_EQ(*ops[1].response, "v1");
  EXPECT_EQ(ops[1].id, OperationId{});
  EXPECT_FALSE(cluster.crashed(cluster.n() + 1)) << "clients never crash";
}

// chtread's follower admits both requests itself; Raft and VR redirect both
// to the leader, where they complete. No timeout-rotation luck involved.
TYPED_TEST(StackClusterTest, FollowerHomedClientIsServedOrRedirected) {
  harness::StackCluster<TypeParam> cluster(
      config_with_clients(5), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  const int leader = cluster.leader();
  const int follower = (leader + 1) % cluster.n();
  // Slot `follower` submits through client `follower`, homed there.
  cluster.submit(follower, object::RegisterObject::write("v1"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  cluster.submit(follower, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  ASSERT_EQ(cluster.leader(), leader);

  const auto& ops = cluster.history().ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(*ops[1].response, "v1");
  const std::int64_t redirects =
      cluster.client(follower).metrics().value("client.redirects");
  metrics::Registry merged;
  cluster.merge_metrics_into(merged);
  EXPECT_EQ(merged.value("gateway.rmws"), 1);
  const int server =
      TypeParam::Replica::kAnyReplicaServes ? follower : leader;
  EXPECT_EQ(cluster.replica(server).metrics().value("gateway.rmws"), 1);
  EXPECT_EQ(cluster.replica(server).metrics().value("gateway.reads"), 1);
  if constexpr (TypeParam::Replica::kAnyReplicaServes) {
    EXPECT_EQ(redirects, 0);
    EXPECT_EQ(merged.value("gateway.redirects"), 0);
  } else {
    EXPECT_GE(redirects, 2)
        << "both first attempts land on the follower home and must be "
           "redirected";
    EXPECT_GE(merged.value("gateway.redirects"), 2);
  }
}

TYPED_TEST(StackClusterTest, LeaderCrashRestartAndReelection) {
  harness::StackCluster<TypeParam> cluster(
      config_with_clients(0), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  const int old_leader = cluster.leader();
  cluster.sim().crash(ProcessId(old_leader));
  EXPECT_TRUE(cluster.crashed(old_leader));
  ASSERT_TRUE(cluster.sim().run_until(
      [&] {
        const int leader = cluster.leader();
        return leader >= 0 && leader != old_leader;
      },
      cluster.sim().now() + Duration::seconds(30)));

  // Both reigns are counted, and the adapter's sum is the merged counter.
  metrics::Registry merged;
  cluster.merge_metrics_into(merged);
  EXPECT_GE(merged.value("became_leader"), 2);
  EXPECT_EQ(cluster.leadership_changes(), merged.value("became_leader"));

  cluster.restart(old_leader);
  EXPECT_FALSE(cluster.crashed(old_leader));
  EXPECT_TRUE(cluster.sim().run_until(
      [&] { return !cluster.recovering(old_leader); },
      cluster.sim().now() + Duration::seconds(30)));
  cluster.submit(cluster.leader(), object::RegisterObject::write("after"));
  EXPECT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
}

TYPED_TEST(StackClusterTest, MergedMetricsCarryStorageAndLeadership) {
  harness::StackCluster<TypeParam> cluster(
      config_with_clients(0), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  cluster.submit(cluster.leader(), object::RegisterObject::write("v1"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));

  metrics::Registry merged;
  cluster.merge_metrics_into(merged);
  EXPECT_TRUE(has_counter(merged, "fsyncs"));
  EXPECT_NE(merged.find_histogram("storage.flush_width"), nullptr);
  EXPECT_GE(merged.value("became_leader"), 1);
  EXPECT_EQ(cluster.leadership_changes(), merged.value("became_leader"));
}

// Writes submitted at every replica in turn: every replica commits all of
// them, and the committed sequences agree under one leader per epoch.
TYPED_TEST(StackClusterTest, WriteWorkloadKeepsProtocolInvariants) {
  harness::StackCluster<TypeParam> cluster(
      config_with_clients(0), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(10)));
  for (int k = 0; k < 20; ++k) {
    cluster.submit(k % cluster.n(),
                   object::RegisterObject::write("v" + std::to_string(k)));
    cluster.run_for(Duration::millis(5));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  cluster.run_for(Duration::seconds(1));  // let followers catch up

  for (int i = 0; i < cluster.n(); ++i) {
    const std::vector<OperationId> ids = cluster.committed_op_ids_of(i);
    for (const auto& write : cluster.history().ops()) {
      EXPECT_NE(std::ranges::find(ids, write.id), ids.end())
          << write.op << " not committed at p" << i;
    }
  }
  EXPECT_EQ(cluster.protocol_invariants(), std::vector<std::string>{});
}

// --- harness::safety_violations on hand-built replicas ----------------------

OperationId id_of(std::int64_t seq) { return OperationId{ProcessId(0), seq}; }

raft::LogEntry entry(std::int64_t term, std::int64_t seq) {
  return {term, id_of(seq), object::RegisterObject::write("v")};
}

core::BatchOp op(std::int64_t seq) {
  return {id_of(seq), object::RegisterObject::write("v")};
}

using Log = std::vector<raft::LogEntry>;
using Batches = std::vector<core::Batch>;

TEST(SafetyViolationsTest, TwoLiveLeadersOfOneEpochAreFlagged) {
  const std::vector<harness::LiveReplica<Log>> live{
      {0, true, 3, {}}, {1, false, 3, {}}, {2, true, 3, {}}};
  EXPECT_EQ(harness::safety_violations("raft", live),
            std::vector<std::string>{"raft: p0 and p2 both lead epoch 3"});

  // Without epochs, two leaders at once are one too many.
  const std::vector<harness::LiveReplica<Batches>> no_epochs{
      {0, true, std::nullopt, {}}, {4, true, std::nullopt, {}}};
  EXPECT_EQ(harness::safety_violations("chtread", no_epochs),
            std::vector<std::string>{"chtread: p0 and p4 both lead"});
}

TEST(SafetyViolationsTest, LeadersOfDifferentEpochsAreAllowed) {
  const std::vector<harness::LiveReplica<Log>> live{{0, true, 3, {}},
                                                    {2, true, 4, {}}};
  EXPECT_TRUE(harness::safety_violations("raft", live).empty());
}

TEST(SafetyViolationsTest, DifferingCommittedEntryIsFlagged) {
  const std::vector<harness::LiveReplica<Log>> live{
      {0, false, 2, {entry(1, 1), entry(1, 2), entry(2, 3)}},
      {1, false, 2, {entry(1, 1), entry(2, 2), entry(2, 3)}}};
  EXPECT_EQ(
      harness::safety_violations("raft", live),
      std::vector<std::string>{"raft: p0 and p1 differ at committed entry 2"});
}

// The same operations in the same order, cut into different batches: the
// batch, not the operation, is chtread's committed entry, so comparing the
// flattened operation lists would miss this.
TEST(SafetyViolationsTest, BatchBoundaryDifferenceIsFlagged) {
  const std::vector<harness::LiveReplica<Batches>> live{
      {0, false, std::nullopt, {{op(1), op(2)}, {op(3)}}},
      {1, false, std::nullopt, {{op(1)}, {op(2), op(3)}}}};
  EXPECT_EQ(harness::safety_violations("chtread", live),
            std::vector<std::string>{
                "chtread: p0 and p1 differ at committed entry 1"});
}

TEST(SafetyViolationsTest, AgreeingPrefixesOfDifferentLengthsAreAllowed) {
  const std::vector<harness::LiveReplica<Log>> live{
      {0, false, 1, {entry(1, 1), entry(1, 2), entry(1, 3)}},
      {1, false, 1, {entry(1, 1)}},
      {2, false, 1, {}},
      {3, true, 1, {entry(1, 1), entry(1, 2)}}};
  EXPECT_TRUE(harness::safety_violations("raft", live).empty());
}

}  // namespace
}  // namespace cht
