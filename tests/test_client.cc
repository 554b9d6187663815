// Networked client subsystem tests: session-table admission semantics,
// exactly-once RMWs under message duplication and crash loops, session-table
// rebuild through power-cycle recovery, and VR's client path. These pin the
// client-visible contract the chaos exactly-once invariant checks
// probabilistically. Per-stack routing (served at a follower or redirected
// to the leader) is a typed case in test_stack_cluster.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "client/client.h"
#include "client/session.h"
#include "harness/cluster.h"
#include "object/counter_object.h"

namespace cht {
namespace {

// --- SessionTable unit ------------------------------------------------------

OperationId cid(int client, std::int64_t seq) {
  return OperationId{ProcessId(client), seq};
}

TEST(SessionTableTest, AdmissionClassesFollowAppliedPrefix) {
  client::SessionTable table;
  // Unknown client: everything is fresh.
  EXPECT_EQ(table.admit(cid(7, 1)), client::SessionTable::Admit::kFresh);
  EXPECT_EQ(table.admit(cid(7, 9)), client::SessionTable::Admit::kFresh);

  table.record(cid(7, 1), "r1");
  EXPECT_EQ(table.admit(cid(7, 1)), client::SessionTable::Admit::kDuplicate);
  EXPECT_EQ(table.admit(cid(7, 2)), client::SessionTable::Admit::kFresh);

  table.record(cid(7, 2), "r2");
  EXPECT_EQ(table.admit(cid(7, 1)), client::SessionTable::Admit::kStale);
  EXPECT_EQ(table.admit(cid(7, 2)), client::SessionTable::Admit::kDuplicate);
  EXPECT_EQ(table.admit(cid(7, 3)), client::SessionTable::Admit::kFresh);
}

TEST(SessionTableTest, CachesOnlyTheLastResponsePerClient) {
  client::SessionTable table;
  table.record(cid(5, 1), "first");
  ASSERT_NE(table.cached(cid(5, 1)), nullptr);
  EXPECT_EQ(*table.cached(cid(5, 1)), "first");

  table.record(cid(5, 2), "second");
  EXPECT_EQ(table.cached(cid(5, 1)), nullptr) << "older entries must be gone";
  ASSERT_NE(table.cached(cid(5, 2)), nullptr);
  EXPECT_EQ(*table.cached(cid(5, 2)), "second");
  // A different client's same seq is a different session.
  EXPECT_EQ(table.cached(cid(6, 2)), nullptr);
}

TEST(SessionTableTest, RecordIgnoresSeqRegression) {
  client::SessionTable table;
  table.record(cid(3, 4), "newer");
  table.record(cid(3, 2), "older");  // impossible for sequential clients
  EXPECT_EQ(table.admit(cid(3, 4)), client::SessionTable::Admit::kDuplicate);
  EXPECT_EQ(*table.cached(cid(3, 4)), "newer");
}

TEST(SessionTableTest, SizeBoundedByClientCount) {
  client::SessionTable table;
  for (int round = 0; round < 10; ++round) {
    for (int c = 5; c < 8; ++c) {
      table.record(cid(c, round + 1), "r");
    }
  }
  EXPECT_EQ(table.size(), 3u);
}

// --- chtread integration ----------------------------------------------------

harness::ClusterConfig client_config(std::uint64_t seed) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  config.epsilon = Duration::millis(1);
  config.clients = 5;
  return config;
}

TEST(ClientPathTest, CalmRunCompletesThroughClients) {
  harness::Cluster cluster(client_config(21),
                           std::make_shared<object::CounterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  for (int i = 0; i < 10; ++i) {
    cluster.submit(i % cluster.n(), object::CounterObject::add(1));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));

  std::string value;
  cluster.submit(0, object::CounterObject::value(),
                 [&](const object::Response& r) { value = r; });
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  EXPECT_EQ(value, "10");

  // The ops actually traveled through the client processes.
  ASSERT_TRUE(cluster.client_path());
  metrics::Registry merged;
  cluster.merge_metrics_into(merged);
  EXPECT_EQ(merged.value("client.rmws"), 10);
  EXPECT_GE(merged.value("client.reads"), 1);
  EXPECT_EQ(merged.value("gateway.rmws"), 10);
}

// Pre-GST message duplication delivers some ClientRequests twice; the
// replica-side dedup (pending/log dedup before apply, session table after)
// must still apply each acked increment exactly once.
TEST(ClientPathTest, DuplicateDeliveryAppliesRmwsOnce) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    harness::ClusterConfig config = client_config(seed);
    config.gst = RealTime::zero() + Duration::seconds(2);
    config.pre_gst_loss = 0.05;
    harness::Cluster cluster(config,
                             std::make_shared<object::CounterObject>());
    cluster.sim().network().set_pre_gst_duplicate_probability(0.3);

    for (int i = 0; i < 20; ++i) {
      cluster.submit(i % cluster.n(), object::CounterObject::add(1));
    }
    ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)))
        << "seed " << seed;

    std::string value;
    cluster.submit(0, object::CounterObject::value(),
                   [&](const object::Response& r) { value = r; });
    ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
    EXPECT_EQ(value, "20")
        << "seed " << seed
        << ": a duplicated or retried increment was applied more than once";
  }
}

// Crash-loop the leader while increments are in flight: clients retry the
// same OperationIds across elections and the rebuilt session tables must
// collapse every retry. The final count is exact, not approximate.
TEST(ClientPathTest, LeaderCrashLoopKeepsRmwsExactlyOnce) {
  harness::Cluster cluster(client_config(33),
                           std::make_shared<object::CounterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      cluster.submit(i, object::CounterObject::add(1));
    }
    // Take down the current leader with the round's increments still in
    // flight, let the cluster re-elect and the clients chase it, then bring
    // the victim back so the next round has a full cluster again.
    const int victim = cluster.steady_leader();
    if (victim >= 0) {
      cluster.sim().crash(ProcessId(victim));
      cluster.run_for(Duration::millis(400));
      cluster.restart(victim);
    }
    ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)))
        << "round " << round;
  }

  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(10)));
  std::string value;
  cluster.submit(0, object::CounterObject::value(),
                 [&](const object::Response& r) { value = r; });
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  EXPECT_EQ(value, "15") << "a retried increment was lost or double-applied";
}

// A power-cycled replica rebuilds its session table by replaying the
// durable log through the apply path: the retry of an already-applied RMW
// must classify as a duplicate on the restarted replica, not as fresh.
TEST(ClientPathTest, PowerCycleRebuildsSessionTable) {
  harness::Cluster cluster(client_config(44),
                           std::make_shared<object::CounterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  const int leader = cluster.steady_leader();

  bool done = false;
  const OperationId id = cluster.client(0).submit(
      object::CounterObject::add(5), /*is_read=*/false,
      [&](const OperationId&, const std::string&) { done = true; });
  ASSERT_TRUE(cluster.sim().run_until([&] { return done; },
                                      cluster.sim().now() +
                                          Duration::seconds(30)));

  const int victim = (leader + 1) % cluster.n();
  const auto target = cluster.replica(leader).applied_upto();
  cluster.sim().crash(ProcessId(victim));
  cluster.run_for(Duration::millis(300));
  cluster.restart(victim);
  ASSERT_TRUE(cluster.sim().run_until(
      [&] { return cluster.replica(victim).applied_upto() >= target; },
      cluster.sim().now() + Duration::seconds(30)))
      << "restarted follower never replayed to the pre-crash applied prefix";

  const client::SessionTable& rebuilt =
      cluster.replica(victim).client_gateway().sessions();
  EXPECT_EQ(rebuilt.admit(id), client::SessionTable::Admit::kDuplicate)
      << "replayed session table forgot an applied client RMW";
  ASSERT_NE(rebuilt.cached(id), nullptr);
  EXPECT_EQ(*rebuilt.cached(id), "5");
}

// --- VR ---------------------------------------------------------------------

TEST(VrClientTest, ClientPathCompletesAndCountsExactly) {
  harness::VrCluster cluster(client_config(12),
                             std::make_shared<object::CounterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  for (int i = 0; i < 8; ++i) {
    cluster.submit(i % cluster.n(), object::CounterObject::add(1));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)));

  bool done = false;
  std::string value;
  cluster.client(0).submit(object::CounterObject::value(), /*is_read=*/true,
                           [&](const OperationId&, const std::string& r) {
                             done = true;
                             value = r;
                           });
  ASSERT_TRUE(cluster.sim().run_until([&] { return done; },
                                      cluster.sim().now() +
                                          Duration::seconds(30)));
  EXPECT_EQ(value, "8");
}

}  // namespace
}  // namespace cht
