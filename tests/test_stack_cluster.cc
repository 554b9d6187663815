// harness::StackCluster<Stack> is the one harness every protocol stack runs
// under. These typed tests hold all three traits types to the same contract:
// a leader emerges; both submit paths record the history, with ids on RMWs
// only; a crashed leader is replaced and restarts; merged metrics carry the
// storage counters and the leadership counter; and leadership_changes() is
// that counter's cluster-wide sum.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/cluster.h"
#include "metrics/registry.h"
#include "object/register_object.h"

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

}  // namespace
}  // namespace cht
