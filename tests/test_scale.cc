// Cluster-size sweeps: the protocol works at n = 1..9, tolerating
// floor((n-1)/2) crashes, with exactly one steady leader.
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "harness/cluster.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht {
namespace {

using harness::Cluster;
using harness::ClusterConfig;

class ScaleTest : public ::testing::TestWithParam<int> {};

ClusterConfig config_for(int n, std::uint64_t seed = 5) {
  ClusterConfig config;
  config.n = n;
  config.seed = seed;
  config.delta = Duration::millis(10);
  return config;
}

TEST_P(ScaleTest, ElectsOneLeaderCommitsAndReads) {
  const int n = GetParam();
  Cluster cluster(config_for(n), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(10)));
  int leaders = 0;
  for (int i = 0; i < n; ++i) {
    if (cluster.replica(i).is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  cluster.submit(0, object::RegisterObject::write("v"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  cluster.run_for(cluster.replica_config().lease_renew_interval * 3);
  for (int i = 0; i < n; ++i) {
    cluster.submit(i, object::RegisterObject::read());
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  for (const auto& op : cluster.history().ops()) {
    if (cluster.model().is_read(op.op)) {
      EXPECT_EQ(*op.response, "v");
    }
  }
}

TEST_P(ScaleTest, ToleratesMaxMinorityCrashes) {
  const int n = GetParam();
  const int tolerable = (n - 1) / 2;
  if (tolerable == 0) GTEST_SKIP() << "n too small to crash anyone";
  Cluster cluster(config_for(n, 6), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(10)));
  for (int i = 0; i < tolerable; ++i) cluster.sim().crash(ProcessId(i));
  cluster.submit(n - 1, object::KVObject::put("k", "survives"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)));
  cluster.submit(n - 1, object::KVObject::get("k"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  EXPECT_EQ(*cluster.history().ops().back().response, "survives");
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST_P(ScaleTest, LinearizableMixedWorkload) {
  const int n = GetParam();
  Cluster cluster(config_for(n, 8), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(10)));
  for (int step = 0; step < 12 * n; ++step) {
    const int proc = step % n;
    if (step % 4 == 0) {
      cluster.submit(proc, object::KVObject::put("k", std::to_string(step)));
    } else {
      cluster.submit(proc, object::KVObject::get("k"));
    }
    cluster.run_for(Duration::millis(5));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

INSTANTIATE_TEST_SUITE_P(N, ScaleTest, ::testing::Values(1, 2, 3, 5, 7, 9),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cht
