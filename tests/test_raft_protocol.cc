// White-box Raft protocol tests: a single RaftReplica driven by scripted
// puppet peers — term handling, vote restrictions, log truncation, commit
// rules.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "object/register_object.h"
#include "raft/raft.h"
#include "puppet.h"
#include "sim/simulation.h"

namespace cht {
namespace {

using object::RegisterObject;
using raft::LogEntry;
using raft::RaftReplica;
using test::Puppet;

class RaftProtocolTest : public ::testing::Test {
 protected:
  RaftProtocolTest() : sim_(make_config()) {
    for (int i = 0; i < 4; ++i) {
      sim_.add_process(std::make_unique<Puppet>());
    }
    sim_.add_process(std::make_unique<RaftReplica>(
        std::make_shared<RegisterObject>(), replica_config()));
    sim_.start();
  }

  static raft::RaftConfig replica_config(
      raft::ReadMode read_mode = raft::ReadMode::kReadIndex) {
    raft::RaftConfig rc = raft::RaftConfig::defaults_for(Duration::millis(2));
    // Keep the replica from starting elections during scripted exchanges.
    rc.election_timeout_min = Duration::seconds(100);
    rc.election_timeout_max = Duration::seconds(200);
    rc.read_mode = read_mode;
    return rc;
  }

  static sim::SimulationConfig make_config() {
    sim::SimulationConfig c;
    c.seed = 9;
    c.epsilon = Duration::zero();
    c.network.gst = RealTime::zero();
    c.network.delta = Duration::millis(2);
    c.network.delta_min = Duration::millis(1);
    return c;
  }

  Puppet& puppet(int i) { return sim_.process_as<Puppet>(ProcessId(i)); }
  RaftReplica& replica() {
    return sim_.process_as<RaftReplica>(ProcessId(4));
  }
  static ProcessId replica_id() { return ProcessId(4); }
  void run(Duration d) {
    // Anchor the target with a no-op event: run_until only advances now() by
    // processing events, and several tests wait out real stretches of idle
    // time (e.g. the leader-stickiness window).
    sim_.after(d, [] {});
    sim_.run_until(sim_.now() + d);
  }

  static LogEntry entry(std::int64_t term, int proc, std::int64_t seq,
                        const std::string& value) {
    return LogEntry{term, OperationId{ProcessId(proc), seq},
                    RegisterObject::write(value)};
  }

  // Puppet i answers the latest AppendEntries it received.
  void append_reply(int i, bool success, std::int64_t match_index) {
    const auto& append = *puppet(i).last<raft::msg::AppendEntries>();
    puppet(i).send(replica_id(),
                   raft::msg::AppendReply{append.term, success, match_index,
                                          append.probe_seq, append.lease_stamp});
  }

  // Commits write("a") at index 1 in term 1, power-cycles the replica (it
  // restarts at commit index 0) and elects it in term 2 with puppets 0 and
  // 1's votes. Its no-op is appended at index 2 but acknowledged by no one.
  void elect_restarted_replica(raft::ReadMode read_mode) {
    puppet(0).send(replica_id(),
                   raft::msg::AppendEntries{1, 0, 0, {entry(1, 0, 1, "a")}, 1,
                                            0, LocalTime()});
    run(Duration::millis(10));
    ASSERT_EQ(replica().applied_state().fingerprint(), "a");
    sim_.crash(replica_id());
    sim_.restart(replica_id(), std::make_unique<RaftReplica>(
                                   std::make_shared<RegisterObject>(),
                                   replica_config(read_mode)));
    ASSERT_EQ(replica().commit_index(), 0);
    ASSERT_TRUE(sim_.run_until(
        [&] { return puppet(0).count<raft::msg::RequestVote>() > 0; },
        sim_.now() + Duration::seconds(300)));
    for (int i : {0, 1}) {
      puppet(i).send(replica_id(), raft::msg::VoteReply{2, true});
    }
    run(Duration::millis(10));
    ASSERT_EQ(replica().role(), RaftReplica::Role::kLeader);
    ASSERT_EQ(replica().log_size(), 2u);
  }

  // A read reaches the new leader after puppets 0 and 1 confirmed its term
  // without acknowledging its no-op, so it holds a lease; they confirm a
  // ReadIndex round the same way. The read may be answered only once they
  // acknowledge the no-op, and then with the write committed in term 1.
  void expect_read_waits_for_term_commit() {
    for (int i : {0, 1}) append_reply(i, /*success=*/false, 1);
    run(Duration::millis(10));
    puppet(3).send(replica_id(),
                   raft::msg::ClientRead{OperationId{ProcessId(3), 1},
                                         RegisterObject::read()});
    run(Duration::millis(10));
    for (int i : {0, 1}) append_reply(i, /*success=*/false, 1);
    run(Duration::millis(10));
    EXPECT_EQ(replica().commit_index(), 0);
    EXPECT_EQ(puppet(3).count<raft::msg::ReadReply>(), 0)
        << "read answered before the leader's term committed an entry";
    for (int i : {0, 1}) append_reply(i, /*success=*/true, 2);
    run(Duration::millis(10));
    EXPECT_EQ(replica().commit_index(), 2);
    ASSERT_EQ(puppet(3).count<raft::msg::ReadReply>(), 1);
    EXPECT_EQ(puppet(3).last<raft::msg::ReadReply>()->response, "a");
  }

  sim::Simulation sim_;
};

TEST_F(RaftProtocolTest, GrantsVoteToUpToDateCandidate) {
  puppet(0).send(replica_id(), raft::msg::RequestVote{1, 0, 0});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(0).count<raft::msg::VoteReply>(), 1);
  const auto& reply = *puppet(0).last<raft::msg::VoteReply>();
  EXPECT_TRUE(reply.granted);
  EXPECT_EQ(reply.term, 1);
  EXPECT_EQ(replica().term(), 1);
}

TEST_F(RaftProtocolTest, DoesNotVoteTwiceInSameTerm) {
  puppet(0).send(replica_id(), raft::msg::RequestVote{1, 0, 0});
  run(Duration::millis(10));
  puppet(1).send(replica_id(), raft::msg::RequestVote{1, 0, 0});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(1).count<raft::msg::VoteReply>(), 1);
  EXPECT_FALSE(puppet(1).last<raft::msg::VoteReply>()->granted);
}

TEST_F(RaftProtocolTest, RejectsVoteForStaleLog) {
  // Give the replica a log entry at term 2 via AppendEntries.
  puppet(0).send(replica_id(),
                 raft::msg::AppendEntries{2, 0, 0, {entry(2, 0, 1, "x")}, 0, 0,
                                          LocalTime()});
  run(Duration::millis(10));
  EXPECT_EQ(replica().log_size(), 1u);
  // Age out the leader-stickiness window so votes are considered on their
  // merits (this test is about the log up-to-dateness restriction).
  run(Duration::seconds(100));
  // A candidate with an older last-log term must be rejected even in a
  // newer term.
  puppet(1).send(replica_id(), raft::msg::RequestVote{3, 5, 1});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(1).count<raft::msg::VoteReply>(), 1);
  EXPECT_FALSE(puppet(1).last<raft::msg::VoteReply>()->granted);
  // One with an equal term and >= length is accepted.
  puppet(2).send(replica_id(), raft::msg::RequestVote{3, 1, 2});
  run(Duration::millis(10));
  EXPECT_TRUE(puppet(2).last<raft::msg::VoteReply>()->granted);
}

TEST_F(RaftProtocolTest, LeaderContactBlocksPromptVotes) {
  // A heartbeat from the term-1 leader...
  puppet(0).send(replica_id(),
                 raft::msg::AppendEntries{1, 0, 0, {}, 0, 0, LocalTime()});
  run(Duration::millis(10));
  // ...makes the replica disregard an otherwise acceptable vote request for
  // election_timeout_min (leader stickiness: granting sooner could elect a
  // new leader inside the old leader's read lease).
  puppet(1).send(replica_id(), raft::msg::RequestVote{2, 0, 0});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(1).count<raft::msg::VoteReply>(), 1);
  EXPECT_FALSE(puppet(1).last<raft::msg::VoteReply>()->granted);
  EXPECT_EQ(replica().term(), 1);  // disregarded entirely: no term bump
  // Once the window lapses with no further leader contact, the same request
  // is granted.
  run(Duration::seconds(100));
  puppet(1).send(replica_id(), raft::msg::RequestVote{2, 0, 0});
  run(Duration::millis(10));
  EXPECT_TRUE(puppet(1).last<raft::msg::VoteReply>()->granted);
}

TEST_F(RaftProtocolTest, AppendRejectsMismatchedPrev) {
  puppet(0).send(replica_id(),
                 raft::msg::AppendEntries{1, 3, 1, {entry(1, 0, 1, "x")}, 0, 0,
                                          LocalTime()});
  run(Duration::millis(10));
  ASSERT_EQ(puppet(0).count<raft::msg::AppendReply>(), 1);
  const auto& reply = *puppet(0).last<raft::msg::AppendReply>();
  EXPECT_FALSE(reply.success);
  EXPECT_EQ(reply.match_index, 0);  // hint: follower log length
  EXPECT_EQ(replica().log_size(), 0u);
}

TEST_F(RaftProtocolTest, ConflictingSuffixIsTruncated) {
  // Term-1 leader appends two entries.
  puppet(0).send(replica_id(),
                 raft::msg::AppendEntries{
                     1, 0, 0, {entry(1, 0, 1, "a"), entry(1, 0, 2, "b")}, 0, 0,
                     LocalTime()});
  run(Duration::millis(10));
  EXPECT_EQ(replica().log_size(), 2u);
  // Term-2 leader replaces index 2 with its own entry.
  puppet(1).send(replica_id(),
                 raft::msg::AppendEntries{2, 1, 1, {entry(2, 1, 1, "c")}, 0, 0,
                                          LocalTime()});
  run(Duration::millis(10));
  ASSERT_EQ(replica().log_size(), 2u);
  EXPECT_EQ(replica().log()[1].term, 2);
  EXPECT_EQ(replica().log()[1].op.arg, "c");
}

TEST_F(RaftProtocolTest, CommitFollowsLeaderCommit) {
  puppet(0).send(replica_id(),
                 raft::msg::AppendEntries{
                     1, 0, 0, {entry(1, 0, 1, "a"), entry(1, 0, 2, "b")}, 1, 0,
                     LocalTime()});
  run(Duration::millis(10));
  EXPECT_EQ(replica().commit_index(), 1);
  EXPECT_EQ(replica().last_applied(), 1);
  // Leader commit beyond our log length is clamped.
  puppet(0).send(replica_id(),
                 raft::msg::AppendEntries{1, 2, 1, {}, 99, 0, LocalTime()});
  run(Duration::millis(10));
  EXPECT_EQ(replica().commit_index(), 2);
  EXPECT_EQ(replica().applied_state().fingerprint(), "b");
}

TEST_F(RaftProtocolTest, StaleTermAppendRejected) {
  puppet(0).send(replica_id(), raft::msg::RequestVote{5, 0, 0});
  run(Duration::millis(10));
  EXPECT_EQ(replica().term(), 5);
  puppet(1).send(replica_id(),
                 raft::msg::AppendEntries{3, 0, 0, {entry(3, 1, 1, "x")}, 0, 0,
                                          LocalTime()});
  run(Duration::millis(10));
  const auto& reply = *puppet(1).last<raft::msg::AppendReply>();
  EXPECT_FALSE(reply.success);
  EXPECT_EQ(reply.term, 5);
  EXPECT_EQ(replica().log_size(), 0u);
}

TEST_F(RaftProtocolTest, DuplicateAppendIsIdempotent) {
  const raft::msg::AppendEntries append{1, 0, 0, {entry(1, 0, 1, "a")}, 1, 0, LocalTime()};
  puppet(0).send(replica_id(), append);
  puppet(0).send(replica_id(), append);
  run(Duration::millis(10));
  EXPECT_EQ(replica().log_size(), 1u);
  EXPECT_EQ(replica().commit_index(), 1);
  EXPECT_EQ(puppet(0).count<raft::msg::AppendReply>(), 2);  // both acked
}

// Raft thesis sec. 6.4: a leader learns which of its entries earlier
// leaders committed only once an entry of its own term commits; a
// restarted leader starts at commit index 0. A read answered before then
// can miss a committed write.
TEST_F(RaftProtocolTest, ReadIndexWaitsForTheLeadersTermToCommit) {
  ASSERT_NO_FATAL_FAILURE(elect_restarted_replica(raft::ReadMode::kReadIndex));
  expect_read_waits_for_term_commit();
}

TEST_F(RaftProtocolTest, LeaseReadWaitsForTheLeadersTermToCommit) {
  ASSERT_NO_FATAL_FAILURE(
      elect_restarted_replica(raft::ReadMode::kLeaderLease));
  expect_read_waits_for_term_commit();
}

}  // namespace
}  // namespace cht
