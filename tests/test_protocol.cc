// White-box protocol tests: a single core::Replica surrounded by scripted
// "puppet" peers. Each test hand-crafts the exact message exchanges of the
// paper's pseudocode and checks the replica's visible reaction — estimate
// adoption rules, the promise mechanism, ack conditions, lease membership,
// batch serving.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/replica.h"
#include "leader/enhanced_leader.h"
#include "leader/omega.h"
#include "object/register_object.h"
#include "puppet.h"
#include "sim/simulation.h"

namespace cht {
namespace {

using core::Batch;
using core::BatchOp;
using object::RegisterObject;
using test::Puppet;

// Fixture: replica under test is process 4; processes 0-3 are puppets.
// Puppet 0 plays the (believed) leader: it emits Omega heartbeats so the
// replica never considers itself leader.
class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() : sim_(make_config()) {
    const auto cc = core::Config::defaults_for(delta_, Duration::zero());
    for (int i = 0; i < 4; ++i) sim_.add_process(std::make_unique<Puppet>());
    sim_.add_process(std::make_unique<core::Replica>(
        std::make_shared<RegisterObject>(), cc));
    sim_.start();
    // Keep puppet 0 "alive" for the replica's Omega.
    heartbeat_tick();
  }

  static sim::SimulationConfig make_config() {
    sim::SimulationConfig c;
    c.seed = 42;
    c.epsilon = Duration::zero();  // all clocks = real time
    c.network.gst = RealTime::zero();
    c.network.delta = Duration::millis(2);
    c.network.delta_min = Duration::millis(1);
    return c;
  }

  void heartbeat_tick() {
    puppet(0).send(replica_id(), leader::Heartbeat{});
    sim_.at(sim_.now() + Duration::millis(5), [this] { heartbeat_tick(); });
  }

  Puppet& puppet(int i) { return sim_.process_as<Puppet>(ProcessId(i)); }
  core::Replica& replica() {
    return sim_.process_as<core::Replica>(ProcessId(4));
  }
  static ProcessId replica_id() { return ProcessId(4); }

  void run(Duration d) { sim_.run_until(sim_.now() + d); }

  LocalTime lt(std::int64_t us) { return LocalTime::micros(us); }

  Batch batch_of(const std::string& value, int proc = 0, std::int64_t seq = 1) {
    return Batch{BatchOp{OperationId{ProcessId(proc), seq},
                         RegisterObject::write(value)}};
  }

  Duration delta_ = Duration::millis(2);
  sim::Simulation sim_;
};

TEST_F(ProtocolTest, PrepareIsAdoptedAndAcked) {
  const Batch ops = batch_of("a");
  puppet(0).send(replica_id(), core::msg::Prepare{ops, lt(1000), 1, {}});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(0).count<core::msg::PrepareAck>(), 1);
  const auto& ack = *puppet(0).last<core::msg::PrepareAck>();
  EXPECT_EQ(ack.leader_time, lt(1000));
  EXPECT_EQ(ack.number, 1);
  ASSERT_TRUE(replica().estimate().has_value());
  EXPECT_EQ(replica().estimate()->k, 1);
  EXPECT_EQ(replica().estimate()->ts, lt(1000));
  EXPECT_EQ(replica().estimate()->ops, ops);
}

TEST_F(ProtocolTest, StalePrepareIsIgnoredAfterFresherEstimate) {
  puppet(0).send(replica_id(),
                 core::msg::Prepare{batch_of("new"), lt(2000), 1, {}});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(0).count<core::msg::PrepareAck>(), 1);
  // An older leader's Prepare for the same slot must not be adopted.
  puppet(1).send(replica_id(),
                 core::msg::Prepare{batch_of("old"), lt(500), 1, {}});
  run(Duration::millis(10));
  EXPECT_EQ(puppet(1).count<core::msg::PrepareAck>(), 0);
  EXPECT_EQ(replica().estimate()->ts, lt(2000));
}

TEST_F(ProtocolTest, EstReqPromiseBlocksOlderPrepares) {
  // Answering a newer leader's EstReq is a promise: Prepares from older
  // leader times must no longer be acknowledged.
  puppet(1).send(replica_id(), core::msg::EstReq{lt(5000)});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(1).count<core::msg::EstReply>(), 1);
  puppet(0).send(replica_id(),
                 core::msg::Prepare{batch_of("x"), lt(4000), 1, {}});
  run(Duration::millis(10));
  EXPECT_EQ(puppet(0).count<core::msg::PrepareAck>(), 0);
  EXPECT_FALSE(replica().estimate().has_value());
}

TEST_F(ProtocolTest, StaleEstReqGetsNoReply) {
  puppet(1).send(replica_id(), core::msg::EstReq{lt(5000)});
  run(Duration::millis(10));
  puppet(2).send(replica_id(), core::msg::EstReq{lt(4000)});
  run(Duration::millis(10));
  EXPECT_EQ(puppet(2).count<core::msg::EstReply>(), 0);
}

TEST_F(ProtocolTest, EstReplyCarriesEstimateAndPreviousBatch) {
  // Commit batch 1, then prepare batch 2; an EstReq must yield the estimate
  // (batch 2) together with committed batch 1 (invariant I2 in transit).
  const Batch b1 = batch_of("one", 0, 1);
  const Batch b2 = batch_of("two", 0, 2);
  puppet(0).send(replica_id(), core::msg::Prepare{b1, lt(1000), 1, {}});
  run(Duration::millis(5));
  puppet(0).send(replica_id(), core::msg::Commit{b1, 1});
  run(Duration::millis(5));
  puppet(0).send(replica_id(), core::msg::Prepare{b2, lt(1000), 2, b1});
  run(Duration::millis(5));
  puppet(1).send(replica_id(), core::msg::EstReq{lt(9000)});
  run(Duration::millis(10));
  const auto* reply = puppet(1).last<core::msg::EstReply>();
  ASSERT_NE(reply, nullptr);
  ASSERT_TRUE(reply->estimate.has_value());
  EXPECT_EQ(reply->estimate->k, 2);
  EXPECT_EQ(reply->estimate->ops, b2);
  ASSERT_TRUE(reply->prev_batch.has_value());
  EXPECT_EQ(*reply->prev_batch, b1);
}

TEST_F(ProtocolTest, CommitAppliesInOrderAndFillsGaps) {
  const Batch b1 = batch_of("one", 0, 1);
  const Batch b2 = batch_of("two", 0, 2);
  // Deliver commit 2 first: the replica must fetch batch 1 before applying.
  puppet(0).send(replica_id(), core::msg::Commit{b2, 2});
  run(Duration::millis(10));
  EXPECT_EQ(replica().applied_upto(), 0);
  EXPECT_GT(puppet(0).count<core::msg::BatchRequest>() +
                puppet(1).count<core::msg::BatchRequest>(),
            0)
      << "replica should be requesting the missing batch 1";
  puppet(1).send(replica_id(), core::msg::BatchReply{1, b1});
  run(Duration::millis(10));
  EXPECT_EQ(replica().applied_upto(), 2);
  EXPECT_EQ(replica().applied_state().fingerprint(), "two");
}

TEST_F(ProtocolTest, PrepareStoresPreviousBatch) {
  const Batch b1 = batch_of("one", 0, 1);
  const Batch b2 = batch_of("two", 0, 2);
  // A Prepare for batch 2 carries committed batch 1; the replica must store
  // and apply it even though it never saw Prepare/Commit for 1.
  puppet(0).send(replica_id(), core::msg::Prepare{b2, lt(1000), 2, b1});
  run(Duration::millis(10));
  EXPECT_TRUE(replica().batches().contains(1));
  EXPECT_EQ(replica().applied_upto(), 1);
  EXPECT_EQ(puppet(0).count<core::msg::PrepareAck>(), 1);
}

TEST_F(ProtocolTest, LeaseGrantOnlyAcceptedWhenMember) {
  // Not in the leaseholder set: replica must ask for reintegration and must
  // not serve reads off this grant.
  puppet(0).send(replica_id(),
                 core::msg::LeaseGrant{0, lt(1000), {0, 1, 2, 3}});
  run(Duration::millis(10));
  EXPECT_EQ(puppet(0).count<core::msg::LeaseRequest>(), 1);
  EXPECT_FALSE(replica().lease().has_value());
  // Included now: lease accepted.
  puppet(0).send(replica_id(),
                 core::msg::LeaseGrant{0, lt(2000), {0, 1, 2, 3, 4}});
  run(Duration::millis(10));
  ASSERT_TRUE(replica().lease().has_value());
  EXPECT_EQ(replica().lease()->issued, lt(2000));
}

TEST_F(ProtocolTest, OlderLeaseGrantDoesNotRegress) {
  puppet(0).send(replica_id(), core::msg::LeaseGrant{3, lt(5000), {4}});
  run(Duration::millis(5));
  puppet(0).send(replica_id(), core::msg::LeaseGrant{2, lt(4000), {4}});
  run(Duration::millis(5));
  ASSERT_TRUE(replica().lease().has_value());
  EXPECT_EQ(replica().lease()->issued, lt(5000));
  EXPECT_EQ(replica().lease()->batch, 3);
}

TEST_F(ProtocolTest, BatchRequestServedOnlyWhenKnown) {
  const Batch b1 = batch_of("one", 0, 1);
  puppet(2).send(replica_id(), core::msg::BatchRequest{1});
  run(Duration::millis(10));
  EXPECT_EQ(puppet(2).count<core::msg::BatchReply>(), 0);
  puppet(0).send(replica_id(), core::msg::Commit{b1, 1});
  run(Duration::millis(5));
  puppet(2).send(replica_id(), core::msg::BatchRequest{1});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(2).count<core::msg::BatchReply>(), 1);
  EXPECT_EQ(puppet(2).last<core::msg::BatchReply>()->ops, b1);
}

TEST_F(ProtocolTest, RmwRequestForwardedToBelievedLeader) {
  // The replica believes puppet 0 is the leader (it heartbeats); a local
  // submit_rmw must be sent there, with periodic retries.
  replica().submit_rmw(RegisterObject::write("w"), core::Replica::Callback());
  run(Duration::millis(10));
  EXPECT_GE(puppet(0).count<core::msg::RmwRequest>(), 1);
  run(Duration::millis(30));
  EXPECT_GE(puppet(0).count<core::msg::RmwRequest>(), 2) << "no retry observed";
}

TEST_F(ProtocolTest, ReadBlocksOnPendingConflictUntilCommit) {
  const Batch b1 = batch_of("one", 0, 1);
  const Batch b2 = batch_of("two", 0, 2);
  puppet(0).send(replica_id(), core::msg::Prepare{b1, lt(1000), 1, {}});
  run(Duration::millis(5));
  puppet(0).send(replica_id(), core::msg::Commit{b1, 1});
  run(Duration::millis(5));
  // Valid lease for batch 1, then a *pending* conflicting batch 2.
  const LocalTime now = replica().now_local();
  puppet(0).send(replica_id(), core::msg::LeaseGrant{1, now, {0, 1, 2, 3, 4}});
  run(Duration::millis(5));
  puppet(0).send(replica_id(), core::msg::Prepare{b2, lt(1000), 2, b1});
  run(Duration::millis(5));
  std::optional<std::string> result;
  replica().submit_read(RegisterObject::read(),
                        [&](const object::Response& r) { result = r; });
  EXPECT_FALSE(result.has_value()) << "read must block on pending batch 2";
  puppet(0).send(replica_id(), core::msg::Commit{b2, 2});
  run(Duration::millis(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, "two");
}

TEST_F(ProtocolTest, ReadWithValidLeaseAndNoConflictIsImmediate) {
  const Batch b1 = batch_of("one", 0, 1);
  puppet(0).send(replica_id(), core::msg::Commit{b1, 1});
  run(Duration::millis(5));
  const LocalTime now = replica().now_local();
  puppet(0).send(replica_id(), core::msg::LeaseGrant{1, now, {0, 1, 2, 3, 4}});
  run(Duration::millis(5));
  std::optional<std::string> result;
  replica().submit_read(RegisterObject::read(),
                        [&](const object::Response& r) { result = r; });
  ASSERT_TRUE(result.has_value()) << "read must complete synchronously";
  EXPECT_EQ(*result, "one");
  EXPECT_EQ(replica().metrics().value("reads_blocked"), 0);
}

TEST_F(ProtocolTest, ReadWithExpiredLeaseWaits) {
  const Batch b1 = batch_of("one", 0, 1);
  puppet(0).send(replica_id(), core::msg::Commit{b1, 1});
  run(Duration::millis(5));
  // Grant issued far in the past: already expired.
  puppet(0).send(replica_id(),
                 core::msg::LeaseGrant{1, lt(1), {0, 1, 2, 3, 4}});
  run(replica().config().lease_period + Duration::millis(5));
  std::optional<std::string> result;
  replica().submit_read(RegisterObject::read(),
                        [&](const object::Response& r) { result = r; });
  EXPECT_FALSE(result.has_value());
  // Fresh grant unblocks it.
  puppet(0).send(replica_id(), core::msg::LeaseGrant{1, replica().now_local(),
                                       {0, 1, 2, 3, 4}});
  run(Duration::millis(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, "one");
}

}  // namespace
}  // namespace cht
