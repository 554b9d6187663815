// White-box VR protocol tests: a single VrReplica driven by scripted
// puppets — view-change quorums, log selection, state transfer, commit
// clamping.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "object/register_object.h"
#include "puppet.h"
#include "sim/simulation.h"
#include "vr/vr.h"

namespace cht {
namespace {

using object::RegisterObject;
using test::Puppet;
using vr::VrLogEntry;
using vr::VrReplica;

// The replica under test is process 1 (so it is the primary of view 1 and a
// backup in view 0, whose primary is puppet 0).
class VrProtocolTest : public ::testing::Test {
 protected:
  VrProtocolTest() : sim_(make_config()) {
    vr::VrConfig config = vr::VrConfig::defaults_for(Duration::millis(2));
    config.view_change_timeout = Duration::seconds(100);  // no spontaneous VC
    sim_.add_process(std::make_unique<Puppet>());  // p0: view-0 primary
    sim_.add_process(std::make_unique<VrReplica>(
        std::make_shared<RegisterObject>(), config));  // p1: under test
    for (int i = 2; i < 5; ++i) sim_.add_process(std::make_unique<Puppet>());
    sim_.start();
  }
  static sim::SimulationConfig make_config() {
    sim::SimulationConfig c;
    c.seed = 13;
    c.epsilon = Duration::zero();
    c.network.gst = RealTime::zero();
    c.network.delta = Duration::millis(2);
    c.network.delta_min = Duration::millis(1);
    return c;
  }

  Puppet& puppet(int i) { return sim_.process_as<Puppet>(ProcessId(i)); }
  VrReplica& replica() { return sim_.process_as<VrReplica>(ProcessId(1)); }
  static ProcessId replica_id() { return ProcessId(1); }
  void run(Duration d) { sim_.run_until(sim_.now() + d); }

  static VrLogEntry entry(int proc, std::int64_t seq, const std::string& v) {
    return VrLogEntry{OperationId{ProcessId(proc), seq},
                      RegisterObject::write(v)};
  }

  sim::Simulation sim_;
};

TEST_F(VrProtocolTest, BackupAppendsAndAcksInOrder) {
  puppet(0).send(replica_id(),
                 vr::msg::Prepare{0, 2, {entry(0, 1, "a"), entry(0, 2, "b")},
                                  0});
  run(Duration::millis(10));
  EXPECT_EQ(replica().log_size(), 2u);
  ASSERT_EQ(puppet(0).count<vr::msg::PrepareOk>(), 1);
  EXPECT_EQ(puppet(0).last<vr::msg::PrepareOk>()->op_number, 2);
}

TEST_F(VrProtocolTest, GapTriggersStateTransfer) {
  // A Prepare whose suffix starts beyond our log end cannot be applied.
  puppet(0).send(replica_id(), vr::msg::Prepare{0, 5, {entry(0, 5, "e")}, 0});
  run(Duration::millis(10));
  EXPECT_EQ(replica().log_size(), 0u);
  EXPECT_EQ(puppet(0).count<vr::msg::GetState>(), 1);
  // Serve the transfer; the replica catches up.
  puppet(0).send(replica_id(), vr::msg::NewState{0,
                                   {entry(0, 1, "a"), entry(0, 2, "b"),
                                    entry(0, 3, "c"), entry(0, 4, "d"),
                                    entry(0, 5, "e")},
                                   5, 3});
  run(Duration::millis(10));
  EXPECT_EQ(replica().log_size(), 5u);
  EXPECT_EQ(replica().commit_number(), 3);
  EXPECT_EQ(replica().applied_state().fingerprint(), "c");
}

TEST_F(VrProtocolTest, CommitClampedToLogLength) {
  puppet(0).send(replica_id(), vr::msg::Prepare{0, 1, {entry(0, 1, "a")}, 99});
  run(Duration::millis(10));
  EXPECT_EQ(replica().commit_number(), 1);
}

TEST_F(VrProtocolTest, BecomesPrimaryOfViewOneAfterQuorum) {
  // Give the replica a log first.
  puppet(0).send(replica_id(), vr::msg::Prepare{0, 1, {entry(0, 1, "a")}, 1});
  run(Duration::millis(10));
  // Two puppets announce a view change to view 1 (whose primary is p1).
  puppet(2).send(replica_id(), vr::msg::StartViewChange{1});
  puppet(3).send(replica_id(), vr::msg::StartViewChange{1});
  run(Duration::millis(10));
  EXPECT_EQ(replica().view(), 1);
  // DoViewChanges from a majority (incl. the replica's own).
  puppet(2).send(replica_id(),
                 vr::msg::DoViewChange{1, {entry(0, 1, "a")}, 0, 1, 1});
  puppet(3).send(replica_id(),
                 vr::msg::DoViewChange{1, {entry(0, 1, "a"), entry(0, 2, "b")},
                                       0, 2, 1});
  run(Duration::millis(10));
  EXPECT_TRUE(replica().is_primary());
  // It selected the longest same-view log...
  EXPECT_EQ(replica().log_size(), 2u);
  // ...and broadcast StartView to everyone.
  EXPECT_GE(puppet(2).count<vr::msg::StartView>(), 1);
  EXPECT_GE(puppet(3).count<vr::msg::StartView>(), 1);
}

TEST_F(VrProtocolTest, HigherLastNormalViewBeatsLongerLog) {
  puppet(2).send(replica_id(), vr::msg::StartViewChange{1});
  puppet(3).send(replica_id(), vr::msg::StartViewChange{1});
  run(Duration::millis(10));
  // Puppet 2's log is longer but from an older normal view; puppet 3's
  // shorter log from a newer normal view must win (it may contain commits
  // the longer, staler log predates).
  puppet(2).send(
      replica_id(), vr::msg::DoViewChange{
          1, {entry(0, 1, "a"), entry(0, 2, "b"), entry(0, 3, "c")}, 0, 3, 1});
  run(Duration::millis(10));
  EXPECT_FALSE(replica().is_primary());  // only 2 DVCs (incl. own) so far
  // Craft: to have last_normal_view > 0, pretend a view 0.5... views are
  // integers; give puppet 3 last_normal_view = 0 but this test needs a
  // genuine newer view. Use view 6 (primary = p1 again, 6 mod 5 = 1).
  puppet(2).send(replica_id(), vr::msg::StartViewChange{6});
  puppet(3).send(replica_id(), vr::msg::StartViewChange{6});
  run(Duration::millis(10));
  puppet(2).send(
      replica_id(), vr::msg::DoViewChange{
          6, {entry(0, 1, "a"), entry(0, 2, "b"), entry(0, 3, "c")}, 0, 3, 0});
  puppet(3).send(replica_id(),
                 vr::msg::DoViewChange{6, {entry(1, 1, "x")}, 4, 1, 1});
  run(Duration::millis(10));
  EXPECT_TRUE(replica().is_primary());
  EXPECT_EQ(replica().view(), 6);
  ASSERT_EQ(replica().log_size(), 1u);
  EXPECT_EQ(replica().log()[0].op.arg, "x");
}

TEST_F(VrProtocolTest, StaleViewMessagesIgnored) {
  // Move to view 6 (see above), then messages from view 0 must be ignored.
  puppet(2).send(replica_id(), vr::msg::StartViewChange{6});
  puppet(3).send(replica_id(), vr::msg::StartViewChange{6});
  run(Duration::millis(10));
  const auto acks_before = puppet(0).count<vr::msg::PrepareOk>();
  puppet(0).send(replica_id(), vr::msg::Prepare{0, 1, {entry(0, 1, "a")}, 0});
  run(Duration::millis(10));
  EXPECT_EQ(puppet(0).count<vr::msg::PrepareOk>(), acks_before);
  EXPECT_EQ(replica().log_size(), 0u);
}

// A replica that joined view v through state transfer is already normal in
// v when the view's StartView arrives late. That log, from the view's start,
// can be shorter than the one the replica has applied since; adopting it
// would drop applied entries.
TEST_F(VrProtocolTest, LateStartViewOfTheCurrentViewIsIgnored) {
  // Puppet 2, primary of view 2, prepares op 3; the replica is behind and
  // asks it for state.
  puppet(2).send(replica_id(), vr::msg::Prepare{2, 3, {entry(2, 3, "c")}, 3});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(2).count<vr::msg::GetState>(), 1);
  puppet(2).send(replica_id(),
                 vr::msg::NewState{2,
                                   {entry(0, 1, "a"), entry(2, 2, "b"),
                                    entry(2, 3, "c")},
                                   3, 3});
  run(Duration::millis(10));
  ASSERT_EQ(replica().view(), 2);
  ASSERT_EQ(replica().status(), VrReplica::Status::kNormal);
  ASSERT_EQ(replica().commit_number(), 3);
  // The view's StartView, sent when its log held one entry, arrives now.
  puppet(2).send(replica_id(),
                 vr::msg::StartView{2, {entry(0, 1, "a")}, 1, 1});
  run(Duration::millis(10));
  EXPECT_EQ(replica().log_size(), 3u);
  EXPECT_EQ(replica().commit_number(), 3);
  EXPECT_EQ(replica().applied_state().fingerprint(), "c");
}

}  // namespace
}  // namespace cht
