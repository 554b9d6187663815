// The read-lease mechanism: blocking bounds, conflict awareness, leaseholder
// tracking and reintegration.
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "harness/cluster.h"
#include "object/counter_object.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht {
namespace {

using harness::Cluster;
using harness::ClusterConfig;

ClusterConfig lease_config(std::uint64_t seed = 21) {
  ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  config.epsilon = Duration::millis(1);
  return config;
}

// A read that lands while a conflicting RMW is pending blocks, but for at
// most 3*delta (paper Section 3, "Non-blocking reads").
TEST(LeaseTest, BlockedReadsBoundedBy3Delta) {
  Cluster cluster(lease_config(), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int follower = (leader + 1) % cluster.n();
  // Fire writes continuously and interleave follower reads so that many
  // reads observe a pending conflicting batch. (Moderate count and spacing:
  // the final whole-history linearizability check is exponential in the
  // width of concurrent windows.)
  for (int i = 0; i < 100; ++i) {
    cluster.submit((leader + 2) % cluster.n(),
                   object::RegisterObject::write("v" + std::to_string(i)));
    cluster.run_for(Duration::millis(3));
    cluster.submit(follower, object::RegisterObject::read());
    cluster.run_for(Duration::millis(9));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));
  const auto& metrics = cluster.replica(follower).metrics();
  EXPECT_GT(metrics.value("reads_blocked"), 0)
      << "test needs some blocked reads";
  const auto* block = metrics.find_histogram("span.read.block_us");
  ASSERT_NE(block, nullptr);
  EXPECT_LE(Duration::micros(block->max()), 3 * cluster.config().delta)
      << "a read blocked for longer than 3*delta";
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

// Reads that do not conflict with in-flight RMW operations (almost) never
// block — the conflict predicate is semantic, not "any write blocks all
// reads". The tolerated residue: a LeaseGrant can overtake the Commit of
// the batch it references (both are broadcasts subject to independent
// delays — the paper's sequential loop issues the grant right after the
// commit too), forcing a wait of at most ~delta for that batch to arrive.
TEST(LeaseTest, NonConflictingReadsAlmostNeverBlock) {
  Cluster cluster(lease_config(22), std::make_shared<object::KVObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int follower = (leader + 1) % cluster.n();
  int blocked = 0;
  for (int i = 0; i < 100; ++i) {
    // Writes hammer key "hot"; reads touch key "cold" — no conflicts.
    cluster.submit((leader + 2) % cluster.n(),
                   object::KVObject::put("hot", std::to_string(i)));
    cluster.run_for(Duration::millis(2));
    const auto before = cluster.replica(follower).metrics().value("reads_blocked");
    cluster.submit(follower, object::KVObject::get("cold"));
    blocked += static_cast<int>(
        cluster.replica(follower).metrics().value("reads_blocked") - before);
    cluster.run_for(Duration::millis(2));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));
  EXPECT_LE(blocked, 10) << "conflict-free reads should essentially not block";
  // And any such block is the short grant-overtook-commit wait, not a full
  // conflicting-batch wait.
  EXPECT_LE(Duration::micros(cluster.replica(follower)
                                 .metrics()
                                 .find_histogram("span.read.block_us")
                                 ->max()),
            3 * cluster.config().delta / 2);
}

// Parity reads do not conflict with even increments (exact semantic
// conflicts via the transition function, per the paper's definition).
TEST(LeaseTest, SemanticConflictsCounterParity) {
  Cluster cluster(lease_config(23), std::make_shared<object::CounterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int follower = (leader + 1) % cluster.n();
  int blocked = 0;
  for (int i = 0; i < 50; ++i) {
    cluster.submit((leader + 2) % cluster.n(), object::CounterObject::add(2));
    cluster.run_for(Duration::millis(2));
    const auto before = cluster.replica(follower).metrics().value("reads_blocked");
    cluster.submit(follower, object::CounterObject::parity());
    blocked += static_cast<int>(
        cluster.replica(follower).metrics().value("reads_blocked") - before);
    cluster.run_for(Duration::millis(2));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));
  // Tolerate the short grant-overtook-commit waits (see the previous test);
  // semantic non-conflicts must never pay a full conflicting-batch wait.
  EXPECT_LE(blocked, 5);
  EXPECT_LE(Duration::micros(cluster.replica(follower)
                                 .metrics()
                                 .find_histogram("span.read.block_us")
                                 ->max()),
            3 * cluster.config().delta / 2);
  for (const auto& record : cluster.history().ops()) {
    if (record.op.kind == "parity") {
      EXPECT_EQ(*record.response, "even");
    }
  }
}

// A crashed leaseholder delays a commit at most once: the leader waits out
// its lease for the first write, drops it from the leaseholder set, and
// subsequent writes commit at full speed.
TEST(LeaseTest, CrashedLeaseholderDelaysWritesAtMostOnce) {
  Cluster cluster(lease_config(24), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int victim = (leader + 1) % cluster.n();
  const int submitter = (leader + 2) % cluster.n();
  cluster.sim().crash(ProcessId(victim));
  // The victim may serve reads until its own clock reaches this.
  ASSERT_TRUE(cluster.replica(victim).lease().has_value());
  const LocalTime lease_end = cluster.replica(victim).lease()->issued +
                              cluster.replica_config().lease_period;

  // First write after the crash: pays the lease-expiry wait, so it is
  // answered only after the victim's lease has run out.
  LocalTime victim_clock_at_reply = LocalTime::min();
  cluster.submit(submitter, object::RegisterObject::write("first"),
                 [&](const object::Response&) {
                   victim_clock_at_reply = cluster.replica(victim).now_local();
                 });
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));

  // Subsequent writes: no leaseholder wait (victim was dropped).
  Duration worst_later = Duration::zero();
  for (int i = 0; i < 5; ++i) {
    const RealTime t = cluster.sim().now();
    cluster.submit(submitter,
                   object::RegisterObject::write("later" + std::to_string(i)));
    ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));
    worst_later = std::max(worst_later, cluster.sim().now() - t);
  }
  EXPECT_GE(victim_clock_at_reply, lease_end)
      << "first write should wait out the victim's lease";
  EXPECT_LT(worst_later, cluster.replica_config().lease_period / 2)
      << "later writes must not wait for the crashed leaseholder again";
  EXPECT_FALSE(cluster.replica(leader).leaseholders().contains(victim));
}

// A process dropped from the leaseholder set (here: temporarily partitioned)
// rejoins via LeaseRequest and serves local reads again.
TEST(LeaseTest, DroppedLeaseholderReintegrates) {
  Cluster cluster(lease_config(25), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int victim = (leader + 1) % cluster.n();
  const int submitter = (leader + 2) % cluster.n();
  // Cut the victim off long enough to miss a Prepare round.
  cluster.sim().network().set_process_isolated(ProcessId(victim), true,
                                               cluster.n());
  cluster.submit(submitter, object::RegisterObject::write("while-cut"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));
  EXPECT_FALSE(cluster.replica(leader).leaseholders().contains(victim));
  // Heal; the victim asks back in on the next LeaseGrant it sees.
  cluster.sim().network().set_process_isolated(ProcessId(victim), false,
                                               cluster.n());
  const RealTime deadline = cluster.sim().now() + Duration::seconds(10);
  ASSERT_TRUE(cluster.sim().run_until(
      [&] { return cluster.replica(leader).leaseholders().contains(victim); },
      deadline));
  // And it can serve a fresh local read.
  cluster.run_for(cluster.replica_config().lease_renew_interval * 3);
  const auto blocked_before =
      cluster.replica(victim).metrics().value("reads_blocked");
  cluster.submit(victim, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_EQ(*cluster.history().ops().back().response, "while-cut");
  EXPECT_EQ(cluster.replica(victim).metrics().value("reads_blocked"),
            blocked_before);
}

// With the leader gone, follower leases expire and reads block (no stale
// reads!) until a new leader issues fresh leases.
TEST(LeaseTest, ReadsBlockWhileLeaderlessThenRecover) {
  Cluster cluster(lease_config(26), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.submit(0, object::RegisterObject::write("v"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  const int leader = cluster.steady_leader();
  cluster.sim().crash(ProcessId(leader));
  // Wait until every lease has surely expired but (likely) before a new
  // leader finished initializing.
  cluster.run_for(cluster.replica_config().lease_period +
                  cluster.config().epsilon);
  const int reader = (leader + 1) % cluster.n();
  if (!cluster.replica(reader).is_leader()) {
    const auto blocked_before =
        cluster.replica(reader).metrics().value("reads_blocked");
    cluster.submit(reader, object::RegisterObject::read());
    // The read must not answer from a stale lease.
    EXPECT_GT(cluster.replica(reader).metrics().value("reads_blocked"),
              blocked_before);
  } else {
    cluster.submit(reader, object::RegisterObject::read());
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  EXPECT_EQ(*cluster.history().ops().back().response, "v");
}

// Reads remain message-free even when they block on conflicting writes
// (paper S1: the number of messages does not depend on the number of
// reads). Three runs of one seed over windows of equal length, with no
// reads, 40 reads and 1000 reads at the same instants, must send exactly the
// same messages: gap fill asks only for batches known to be committed, never
// for the pending batch a blocked read waits on.
TEST(LeaseTest, BlockedReadsSendNoMessages) {
  struct Window {
    std::int64_t sent = 0;
    std::int64_t reads_blocked = 0;
  };
  auto measure = [](int reads_per_write) {
    Cluster cluster(lease_config(27),
                    std::make_shared<object::RegisterObject>());
    EXPECT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
    cluster.run_for(Duration::seconds(1));
    const int leader = cluster.steady_leader();
    const int follower = (leader + 1) % cluster.n();
    const auto& stats = cluster.sim().network().stats();
    const std::int64_t sent_before = stats.sent;
    const RealTime end = cluster.sim().now() + Duration::seconds(2);
    for (int i = 0; i < 40; ++i) {
      cluster.submit((leader + 2) % cluster.n(),
                     object::RegisterObject::write("v" + std::to_string(i)));
      cluster.run_for(Duration::millis(1));
      for (int r = 0; r < reads_per_write; ++r) {
        cluster.submit(follower, object::RegisterObject::read());
      }
      cluster.run_for(Duration::millis(20));
    }
    EXPECT_TRUE(cluster.await_quiesce(Duration::seconds(20)));
    EXPECT_LE(cluster.sim().now(), end) << "operations outlived the window";
    cluster.sim().run_until(end);
    return Window{stats.sent - sent_before,
                  cluster.replica(follower).metrics().value("reads_blocked")};
  };
  const Window with_no_reads = measure(0);
  const Window with_forty_reads = measure(1);
  const Window with_thousand_reads = measure(25);
  EXPECT_GT(with_thousand_reads.reads_blocked, 0)
      << "test needs some blocked reads";
  EXPECT_EQ(with_forty_reads.sent, with_no_reads.sent)
      << "reads generated network traffic";
  EXPECT_EQ(with_thousand_reads.sent, with_no_reads.sent)
      << "reads generated network traffic";
}

}  // namespace
}  // namespace cht
