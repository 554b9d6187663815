// White-box Omega failure detector tests: suspicion timing, smallest-id
// rule, self-aliveness, recovery of belief when heartbeats resume, and the
// packet-efficient rules: only a self-believed leader heartbeats, any
// member's message is evidence, and a heartbeat vouches for its sender's
// peers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>

#include "leader/omega.h"
#include "puppet.h"
#include "sim/simulation.h"

namespace cht {
namespace {

using leader::OmegaConfig;
using leader::OmegaDetector;

// Ticks the detector every kTick, as a replica does every delta.
class OmegaHost : public sim::Process {
 public:
  static constexpr Duration kTick = Duration::millis(5);

  explicit OmegaHost(OmegaConfig config) : omega_(*this, config) {}
  void on_start() override {
    omega_.start();
    tick();
  }
  void tick() {
    omega_.tick();
    schedule_after(kTick, [this] { tick(); });
  }
  void on_message(const sim::Message& message) override {
    omega_.handle_message(message);
  }
  OmegaDetector& omega() { return omega_; }

 private:
  OmegaDetector omega_;
};

// Any traffic that is not the detector's own.
struct Ping {
  static constexpr std::string_view kType = "test.ping";
};

class OmegaUnitTest : public ::testing::Test {
 protected:
  OmegaUnitTest() : sim_(make_config()) {
    OmegaConfig config;
    config.timeout = Duration::millis(25);
    // Host is process 2 (so ids 0 and 1 are both "smaller"); process 3 is
    // a client, outside the cluster.
    sim_.add_process(std::make_unique<test::Puppet>());
    sim_.add_process(std::make_unique<test::Puppet>());
    sim_.add_process(std::make_unique<OmegaHost>(config));
    sim_.add_client(std::make_unique<test::Puppet>());
    sim_.start();
  }
  static sim::SimulationConfig make_config() {
    sim::SimulationConfig c;
    c.seed = 2;
    c.network.gst = RealTime::zero();
    c.network.delta = Duration::millis(2);
    c.network.delta_min = Duration::millis(1);
    return c;
  }
  OmegaHost& host() { return sim_.process_as<OmegaHost>(ProcessId(2)); }
  test::Puppet& peer(int i) {
    return sim_.process_as<test::Puppet>(ProcessId(i));
  }
  void heartbeat_from(int i, std::uint64_t heard = 0) {
    sim_.process(ProcessId(i)).send(ProcessId(2), leader::Heartbeat{heard});
  }
  void ping_from(int i) {
    sim_.process(ProcessId(i)).send(ProcessId(2), Ping{});
  }
  std::int64_t heartbeats_sent() {
    return sim_.network().stats().sent_of(leader::Heartbeat::kType);
  }
  void run(Duration d) { sim_.run_until(sim_.now() + d); }
  sim::Simulation sim_;
};

TEST_F(OmegaUnitTest, SelfIsLeaderWhenNoHeartbeats) {
  run(Duration::millis(50));
  EXPECT_EQ(host().omega().leader(), ProcessId(2));
}

TEST_F(OmegaUnitTest, SmallestRecentlyHeardIdWins) {
  heartbeat_from(1);
  run(Duration::millis(5));
  EXPECT_EQ(host().omega().leader(), ProcessId(1));
  heartbeat_from(0);
  run(Duration::millis(5));
  EXPECT_EQ(host().omega().leader(), ProcessId(0));
}

TEST_F(OmegaUnitTest, SuspicionAfterTimeout) {
  heartbeat_from(0);
  run(Duration::millis(5));
  EXPECT_EQ(host().omega().leader(), ProcessId(0));
  // No further heartbeats: after the timeout, p0 is suspected and the
  // belief falls back to self (p1 never sent anything).
  run(Duration::millis(30));
  EXPECT_EQ(host().omega().leader(), ProcessId(2));
}

TEST_F(OmegaUnitTest, BeliefRecoversWhenHeartbeatsResume) {
  heartbeat_from(0);
  run(Duration::millis(40));  // suspected by now
  EXPECT_EQ(host().omega().leader(), ProcessId(2));
  heartbeat_from(0);
  run(Duration::millis(5));
  EXPECT_EQ(host().omega().leader(), ProcessId(0));
}

TEST_F(OmegaUnitTest, FallsBackToNextSmallest) {
  heartbeat_from(0);
  heartbeat_from(1);
  run(Duration::millis(5));
  EXPECT_EQ(host().omega().leader(), ProcessId(0));
  // Keep p1 alive while p0 goes quiet.
  for (int i = 0; i < 8; ++i) {
    heartbeat_from(1);
    run(Duration::millis(5));
  }
  EXPECT_EQ(host().omega().leader(), ProcessId(1));
}

TEST_F(OmegaUnitTest, HostEmitsPeriodicHeartbeats) {
  run(Duration::millis(23));
  // The host broadcasts to both peers every 5 ms: >= 4 rounds by now.
  EXPECT_GE(heartbeats_sent(), 8);
}

// Only a process whose leader() is itself heartbeats: once it hears a
// smaller id, the host falls silent.
TEST_F(OmegaUnitTest, SilentWhileASmallerIdIsAlive) {
  heartbeat_from(1);
  run(Duration::millis(5));
  const std::int64_t before = heartbeats_sent();
  for (int i = 0; i < 8; ++i) {
    heartbeat_from(1);
    run(Duration::millis(5));
  }
  EXPECT_EQ(host().omega().leader(), ProcessId(1));
  EXPECT_EQ(heartbeats_sent() - before, 8) << "only the injected heartbeats";
}

// Any delivery from a cluster member proves it alive, heartbeat or not; a
// client's delivery proves nothing about any member.
TEST_F(OmegaUnitTest, AnyMemberMessageIsEvidenceButNotAClients) {
  for (int i = 0; i < 8; ++i) {
    ping_from(0);
    run(Duration::millis(5));
  }
  EXPECT_EQ(host().omega().leader(), ProcessId(0));

  run(Duration::millis(30));  // p0 suspected again
  ASSERT_EQ(host().omega().leader(), ProcessId(2));
  const int received = peer(1).count<leader::Heartbeat>();
  for (int i = 0; i < 8; ++i) {
    ping_from(3);
    run(Duration::millis(5));
  }
  EXPECT_EQ(host().omega().leader(), ProcessId(2));
  // The host still leads, and its heartbeats vouch for nobody.
  EXPECT_GE(peer(1).count<leader::Heartbeat>() - received, 7);
  EXPECT_EQ(peer(1).last<leader::Heartbeat>()->heard, 0u);
}

// A heartbeat names the members its sender heard from directly, and the
// receiver counts them alive for 2 x timeout: when the leader falls silent,
// a host that never heard the successor itself still moves straight to it
// rather than to itself.
TEST_F(OmegaUnitTest, SuccessorKnownFromTheLeadersHeartbeats) {
  for (int i = 0; i < 4; ++i) {
    heartbeat_from(0, /*heard=*/std::uint64_t{1} << 1);
    run(Duration::millis(5));
  }
  EXPECT_EQ(host().omega().leader(), ProcessId(0));
  // p0's last heartbeat is now past the 25 ms timeout but within 50 ms.
  run(Duration::millis(30));
  EXPECT_EQ(host().omega().leader(), ProcessId(1));
  // Second-hand evidence lapses too.
  run(Duration::millis(30));
  EXPECT_EQ(host().omega().leader(), ProcessId(2));
}

}  // namespace
}  // namespace cht
