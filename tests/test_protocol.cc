// White-box protocol tests: a single core::Replica surrounded by scripted
// "puppet" peers. Each test hand-crafts the exact message exchanges of the
// paper's pseudocode and checks the replica's visible reaction — estimate
// adoption rules, the promise mechanism, ack conditions, lease membership,
// batch serving.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
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

sim::SimulationConfig puppet_sim_config() {
  sim::SimulationConfig c;
  c.seed = 42;
  c.epsilon = Duration::zero();  // all clocks = real time
  c.network.gst = RealTime::zero();
  c.network.delta = Duration::millis(2);
  c.network.delta_min = Duration::millis(1);
  return c;
}

// When each T that `puppet` received was sent, in microseconds of real time.
template <class T>
std::vector<std::int64_t> sent_times(const Puppet& puppet) {
  std::vector<std::int64_t> out;
  for (const sim::Message& m : puppet.received) {
    if (m.is<T>()) out.push_back(m.sent_at.to_micros());
  }
  return out;
}

// The replica under test starts at real time 0 and ticks every delta, so
// its ticks fall on the multiples of delta.
std::int64_t first_tick_at_or_after(std::int64_t us, Duration delta) {
  const std::int64_t d = delta.to_micros();
  return (us + d - 1) / d * d;
}

// Fixture: replica under test is process 4; processes 0-3 are puppets.
// Puppet 0 plays the (believed) leader: it emits Omega heartbeats so the
// replica never considers itself leader.
class ProtocolTest : public ::testing::Test {
 protected:
  explicit ProtocolTest(
      core::ReadPolicy read_policy = core::ReadPolicy::kLocalLease)
      : sim_(puppet_sim_config()) {
    auto cc = core::Config::defaults_for(delta_, Duration::zero());
    cc.read_policy = read_policy;
    for (int i = 0; i < 4; ++i) sim_.add_process(std::make_unique<Puppet>());
    sim_.add_process(std::make_unique<core::Replica>(
        std::make_shared<RegisterObject>(), cc));
    sim_.start();
    // Keep puppet 0 "alive" for the replica's Omega.
    heartbeat_tick();
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
  // submit_rmw must be sent there at once, off the tick grid here, and
  // re-sent while unanswered on the first tick at least 4 delta after the
  // last send, never sooner.
  run(Duration::micros(5'000));
  replica().submit_rmw(RegisterObject::write("w"), core::Replica::Callback());
  run(Duration::millis(28));  // every send up to 30 ms has arrived
  // Ticks fall every 2 ms: 5 ms, then the first tick at or after 13, 22
  // and 30 ms.
  EXPECT_EQ(sent_times<core::msg::RmwRequest>(puppet(0)),
            (std::vector<std::int64_t>{5'000, 14'000, 22'000, 30'000}));
}

// The same replica, forwarding every read to the believed leader.
class ForwardedReadTest : public ProtocolTest {
 protected:
  ForwardedReadTest() : ProtocolTest(core::ReadPolicy::kLeaderForward) {}
};

TEST_F(ForwardedReadTest, ReadRequestIsResentLikeAnRmw) {
  run(Duration::micros(5'000));
  replica().submit_read(RegisterObject::read(), core::Replica::Callback());
  run(Duration::millis(28));  // every send up to 30 ms has arrived
  EXPECT_EQ(sent_times<core::msg::ReadRequest>(puppet(0)),
            (std::vector<std::int64_t>{5'000, 14'000, 22'000, 30'000}));
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

// Fixture: the replica under test is process 0, so Omega trusts it
// throughout. Once puppets 1 and 2 grant it support, its own support makes a
// majority and it leads from its next tick. The puppets answer nothing
// unless a test makes them.
class LeaderProtocolTest : public ::testing::Test {
 protected:
  LeaderProtocolTest() : sim_(puppet_sim_config()) {
    const auto cc = core::Config::defaults_for(delta_, Duration::zero());
    sim_.add_process(std::make_unique<core::Replica>(
        std::make_shared<RegisterObject>(), cc));
    for (int i = 1; i < 5; ++i) sim_.add_process(std::make_unique<Puppet>());
    sim_.start();
  }

  // Puppets 1 and 2 support the replica from time 0 until `end`.
  void support_until(LocalTime end) {
    for (int i = 1; i <= 2; ++i) {
      puppet(i).send(replica_id(),
                     leader::SupportGrant{1, LocalTime::zero(), end});
    }
  }
  // Puppets 1 and 2 answer the replica's EstReq round with no estimate.
  void answer_est_reqs() {
    const core::msg::EstReq* request = puppet(1).last<core::msg::EstReq>();
    ASSERT_NE(request, nullptr) << "no EstReq to answer yet";
    const LocalTime t = request->leader_time;
    for (int i = 1; i <= 2; ++i) {
      puppet(i).send(replica_id(),
                     core::msg::EstReply{t, std::nullopt, std::nullopt});
    }
  }

  Puppet& puppet(int i) { return sim_.process_as<Puppet>(ProcessId(i)); }
  core::Replica& replica() {
    return sim_.process_as<core::Replica>(ProcessId(0));
  }
  static ProcessId replica_id() { return ProcessId(0); }
  void run(Duration d) { sim_.run_until(sim_.now() + d); }

  Duration delta_ = Duration::millis(2);
  sim::Simulation sim_;
};

TEST_F(LeaderProtocolTest, UnansweredRoundsRepeatEveryTwoTicks) {
  const std::int64_t d = delta_.to_micros();
  // Collecting: the new leader's EstReq goes out on a tick and, with no
  // majority answering, again every 2 ticks.
  support_until(LocalTime::micros(1'000'000));
  run(Duration::millis(15));
  const std::vector<std::int64_t> est_reqs =
      sent_times<core::msg::EstReq>(puppet(1));
  ASSERT_GE(est_reqs.size(), 3u);
  EXPECT_EQ(est_reqs[0] % d, 0) << "the reign begins on a tick";
  for (std::size_t i = 1; i < est_reqs.size(); ++i) {
    EXPECT_EQ(est_reqs[i] - est_reqs[i - 1], 2 * d) << "EstReq " << i;
  }

  // Two replies complete the round between ticks. The reign's NoOp leaves
  // at once as a Prepare; unacknowledged, it is repeated on the first tick
  // at least 2 delta later, then every 2 ticks.
  run(Duration::micros(500));
  answer_est_reqs();
  run(Duration::millis(15));
  const std::vector<std::int64_t> prepares =
      sent_times<core::msg::Prepare>(puppet(1));
  ASSERT_GE(prepares.size(), 3u);
  ASSERT_NE(prepares[0] % d, 0) << "the round must start between ticks";
  EXPECT_LT(sent_times<core::msg::EstReq>(puppet(1)).back(), prepares[0])
      << "EstReq repeated after a majority answered";
  EXPECT_EQ(prepares[1], first_tick_at_or_after(prepares[0] + 2 * d, delta_));
  for (std::size_t i = 2; i < prepares.size(); ++i) {
    EXPECT_EQ(prepares[i] - prepares[i - 1], 2 * d) << "Prepare " << i;
  }
}

TEST_F(LeaderProtocolTest, LastCommitIsRebroadcastEveryEightTicks) {
  const std::int64_t d = delta_.to_micros();
  support_until(LocalTime::micros(1'000'000));
  run(Duration::millis(5));  // the reign's first EstReq has arrived
  answer_est_reqs();
  // Every process acks the reign's NoOp, batch 1, as soon as its Prepare
  // arrives, so the batch commits within the ack deadline, between ticks.
  sim_.run_until([&] { return puppet(1).count<core::msg::Prepare>() > 0; },
                 sim_.now() + Duration::millis(10));
  const core::msg::Prepare* prepare = puppet(1).last<core::msg::Prepare>();
  ASSERT_NE(prepare, nullptr);
  for (int i = 1; i < 5; ++i) {
    puppet(i).send(replica_id(), core::msg::PrepareAck{prepare->leader_time,
                                                       prepare->number});
  }
  run(Duration::millis(40));
  // The lazy rebroadcast repeats the commit on the first tick at least
  // 8 delta later, and every 8 ticks after.
  const std::vector<std::int64_t> commits =
      sent_times<core::msg::Commit>(puppet(1));
  ASSERT_EQ(commits.size(), 3u);
  ASSERT_NE(commits[0] % d, 0) << "batch 1 must commit between ticks";
  EXPECT_EQ(commits[1], first_tick_at_or_after(commits[0] + 8 * d, delta_));
  EXPECT_EQ(commits[2] - commits[1], 8 * d);
}

TEST_F(LeaderProtocolTest, LeaderWhoseSupportLapsedGrantsNoLease) {
  // The support ends while the EstReq round is open, and the round
  // completes before the next resend would notice. Completing it submits
  // the reign's NoOp, whose batch start renews leases (line 44); line 40's
  // check must hold there too, or a lease from a leader that AmLeader no
  // longer certifies could outlive its successor's lease-expiry wait.
  support_until(LocalTime::micros(7'500));
  run(Duration::micros(7'600));
  ASSERT_EQ(sent_times<core::msg::EstReq>(puppet(1)),
            (std::vector<std::int64_t>{2'000, 6'000}))
      << "the reign must begin at 2 ms and repeat its EstReq at 6 ms";
  answer_est_reqs();
  run(Duration::millis(8));
  // The replies landed before the 10 ms resend: the reign reached steady
  // (its init span ended) and then abdicated.
  const metrics::Histogram* init =
      replica().metrics().find_histogram("span.leader.init_us");
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->count(), 1);
  EXPECT_EQ(replica().metrics().value("abdicated"), 1);
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(puppet(i).count<core::msg::LeaseGrant>(), 0) << "puppet " << i;
    EXPECT_EQ(puppet(i).count<core::msg::Prepare>(), 0) << "puppet " << i;
  }
}

}  // namespace
}  // namespace cht
