// White-box Omega failure detector tests: suspicion timing, smallest-id
// rule, self-aliveness, recovery of belief when heartbeats resume.
#include <gtest/gtest.h>

#include <memory>

#include "leader/omega.h"
#include "sim/simulation.h"

namespace cht {
namespace {

using leader::OmegaConfig;
using leader::OmegaDetector;

class OmegaHost : public sim::Process {
 public:
  explicit OmegaHost(OmegaConfig config) : omega_(*this, config) {}
  void on_start() override { omega_.start(); }
  void on_message(const sim::Message& message) override {
    omega_.handle_message(message);
  }
  OmegaDetector& omega() { return omega_; }

 private:
  OmegaDetector omega_;
};

class Quiet : public sim::Process {
 public:
  void on_message(const sim::Message&) override {}
};

class OmegaUnitTest : public ::testing::Test {
 protected:
  OmegaUnitTest() : sim_(make_config()) {
    OmegaConfig config;
    config.heartbeat_interval = Duration::millis(5);
    config.timeout = Duration::millis(25);
    // Host is process 2 (so ids 0 and 1 are both "smaller").
    sim_.add_process(std::make_unique<Quiet>());
    sim_.add_process(std::make_unique<Quiet>());
    sim_.add_process(std::make_unique<OmegaHost>(config));
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
  void heartbeat_from(int i) {
    sim_.process(ProcessId(i)).send(ProcessId(2), leader::Heartbeat{});
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
  EXPECT_GE(sim_.network().stats().sent_of(leader::Heartbeat::kType), 8);
}

}  // namespace
}  // namespace cht
