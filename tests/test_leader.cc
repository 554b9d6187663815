// Omega failure detector and enhanced leader service (paper Section 2).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "leader/enhanced_leader.h"
#include "leader/omega.h"
#include "sim/simulation.h"

namespace cht {
namespace {

using leader::EnhancedLeaderConfig;
using leader::EnhancedLeaderService;
using leader::OmegaConfig;
using leader::OmegaDetector;

// Hosts an OmegaDetector and an EnhancedLeaderService, ticking both every
// kTick and recording every interval for which am_leader returned true (for
// EL1 checking).
class LeaderHost : public sim::Process {
 public:
  static constexpr Duration kTick = Duration::millis(5);

  LeaderHost(OmegaConfig omega_config, EnhancedLeaderConfig els_config)
      : omega_(*this, omega_config),
        els_(*this, [this] { return omega_.leader(); }, els_config) {}

  void on_start() override {
    omega_.start();
    tick();
  }
  void tick() {
    omega_.tick();
    els_.tick();
    schedule_after(kTick, [this] { tick(); });
  }
  void on_message(const sim::Message& message) override {
    if (omega_.handle_message(message)) return;
    if (els_.handle_message(message)) return;
  }

  OmegaDetector& omega() { return omega_; }
  EnhancedLeaderService& els() { return els_; }

  struct TrueInterval {
    LocalTime t1;
    LocalTime t2;
  };
  std::vector<TrueInterval> confirmed;

  // Calls am_leader(reign_start, now) like the algorithm does, recording
  // positive results.
  bool probe(LocalTime t1) {
    const LocalTime t2 = now_local();
    if (els_.am_leader(t1, t2)) {
      confirmed.push_back({t1, t2});
      return true;
    }
    return false;
  }

 private:
  OmegaDetector omega_;
  EnhancedLeaderService els_;
};

struct LeaderFixture {
  sim::Simulation sim;
  explicit LeaderFixture(int n, std::uint64_t seed = 1,
                         RealTime gst = RealTime::zero())
      : sim(make_config(seed, gst)) {
    OmegaConfig omega;
    omega.timeout = Duration::millis(25);
    EnhancedLeaderConfig els;
    els.support_duration = Duration::millis(40);
    for (int i = 0; i < n; ++i) {
      sim.add_process(std::make_unique<LeaderHost>(omega, els));
    }
    sim.start();
  }
  static sim::SimulationConfig make_config(std::uint64_t seed, RealTime gst) {
    sim::SimulationConfig c;
    c.seed = seed;
    c.network.gst = gst;
    c.network.delta = Duration::millis(5);
    c.network.delta_min = Duration::micros(100);
    return c;
  }
  LeaderHost& host(int i) { return sim.process_as<LeaderHost>(ProcessId(i)); }
};

TEST(OmegaTest, ConvergesToSmallestAliveId) {
  LeaderFixture f(5);
  f.sim.run_until(RealTime::zero() + Duration::millis(200));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.host(i).omega().leader(), ProcessId(0)) << "at host " << i;
  }
}

TEST(OmegaTest, ReconvergesAfterLeaderCrash) {
  LeaderFixture f(5);
  f.sim.run_until(RealTime::zero() + Duration::millis(200));
  f.sim.crash(ProcessId(0));
  f.sim.run_until(RealTime::zero() + Duration::millis(600));
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(f.host(i).omega().leader(), ProcessId(1)) << "at host " << i;
  }
}

TEST(OmegaTest, SurvivesChainOfCrashes) {
  LeaderFixture f(7);
  f.sim.run_until(RealTime::zero() + Duration::millis(200));
  for (int victim = 0; victim < 3; ++victim) {
    f.sim.crash(ProcessId(victim));
    f.sim.run_until(f.sim.now() + Duration::millis(500));
    for (int i = victim + 1; i < 7; ++i) {
      EXPECT_EQ(f.host(i).omega().leader(), ProcessId(victim + 1))
          << "after crash of " << victim << " at host " << i;
    }
  }
}

// Once converged, only the leader heartbeats and only its followers grant
// support: an idle group of n sends n-1 of each per interval, where an
// all-to-all detector sends n(n-1) heartbeats.
TEST(OmegaTest, ConvergedGroupSendsNMinusOneOfEachPerInterval) {
  constexpr int kN = 5;
  constexpr int kIntervals = 20;
  LeaderFixture f(kN);
  const auto& stats = f.sim.network().stats();
  // Every timer fires on a 5 ms grid from zero; start off the grid so the
  // window holds exactly kIntervals firings of each.
  f.sim.run_until(RealTime::zero() + Duration::micros(302'500));
  const std::int64_t hb = stats.sent_of(leader::Heartbeat::kType);
  const std::int64_t support = stats.sent_of(leader::SupportGrant::kType);
  f.sim.run_until(f.sim.now() + kIntervals * LeaderHost::kTick);
  EXPECT_EQ(stats.sent_of(leader::Heartbeat::kType) - hb,
            (kN - 1) * kIntervals);
  EXPECT_EQ(stats.sent_of(leader::SupportGrant::kType) - support,
            (kN - 1) * kIntervals);
}

TEST(EnhancedLeaderTest, EventualLeaderPassesAmLeader) {
  LeaderFixture f(5);
  f.sim.run_until(RealTime::zero() + Duration::millis(300));
  LeaderHost& leader = f.host(0);
  const LocalTime t1 = leader.now_local();
  f.sim.run_until(f.sim.now() + Duration::millis(100));
  EXPECT_TRUE(leader.els().am_leader(t1, leader.now_local()));
}

TEST(EnhancedLeaderTest, NonLeadersFailAmLeader) {
  LeaderFixture f(5);
  f.sim.run_until(RealTime::zero() + Duration::millis(300));
  for (int i = 1; i < 5; ++i) {
    const LocalTime t = f.host(i).now_local();
    EXPECT_FALSE(f.host(i).els().am_leader(t, t)) << "host " << i;
  }
}

TEST(EnhancedLeaderTest, AmLeaderRejectsInvertedInterval) {
  LeaderFixture f(3);
  f.sim.run_until(RealTime::zero() + Duration::millis(300));
  LeaderHost& leader = f.host(0);
  const LocalTime now = leader.now_local();
  EXPECT_FALSE(leader.els().am_leader(now + Duration::millis(1), now));
}

TEST(EnhancedLeaderTest, LeadershipMovesAfterCrash) {
  LeaderFixture f(5);
  f.sim.run_until(RealTime::zero() + Duration::millis(300));
  f.sim.crash(ProcessId(0));
  f.sim.run_until(f.sim.now() + Duration::seconds(1));
  LeaderHost& successor = f.host(1);
  const LocalTime t1 = successor.now_local();
  f.sim.run_until(f.sim.now() + Duration::millis(100));
  EXPECT_TRUE(successor.els().am_leader(t1, successor.now_local()));
  // And nobody else (alive) considers themselves leader.
  for (int i = 2; i < 5; ++i) {
    const LocalTime t = f.host(i).now_local();
    EXPECT_FALSE(f.host(i).els().am_leader(t, t));
  }
}

// EL1: across the whole run, the set of (process, interval) pairs for which
// am_leader returned true contains no overlapping intervals from *distinct*
// processes — even under pre-GST chaos with message loss and a crash.
TEST(EnhancedLeaderTest, EL1NoTwoLeadersAtTheSameLocalTime) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    LeaderFixture f(5, seed, RealTime::zero() + Duration::millis(400));
    // Probe every host's am_leader continuously while the network is still
    // asynchronous and lossy and leadership churns.
    std::map<int, LocalTime> reign_start;
    for (int step = 0; step < 400; ++step) {
      f.sim.run_until(f.sim.now() + Duration::millis(2));
      if (step == 150) f.sim.crash(ProcessId(0));
      for (int i = 0; i < 5; ++i) {
        if (f.host(i).crashed()) continue;
        LeaderHost& host = f.host(i);
        if (!reign_start.contains(i)) {
          const LocalTime t = host.now_local();
          if (host.probe(t)) reign_start[i] = t;
        } else if (!host.probe(reign_start[i])) {
          reign_start.erase(i);
        }
      }
    }
    // Validate pairwise disjointness across distinct processes.
    for (int i = 0; i < 5; ++i) {
      for (int j = i + 1; j < 5; ++j) {
        for (const auto& a : f.host(i).confirmed) {
          for (const auto& b : f.host(j).confirmed) {
            const bool disjoint = a.t2 < b.t1 || b.t2 < a.t1;
            EXPECT_TRUE(disjoint)
                << "seed " << seed << ": EL1 violated between p" << i
                << " [" << a.t1 << "," << a.t2 << "] and p" << j << " ["
                << b.t1 << "," << b.t2 << "]";
          }
        }
      }
    }
  }
}

// EL2: eventually exactly one correct process is permanently the leader.
TEST(EnhancedLeaderTest, EL2EventualPermanentLeader) {
  LeaderFixture f(5, 9, RealTime::zero() + Duration::millis(300));
  f.sim.run_until(RealTime::zero() + Duration::seconds(2));
  LeaderHost& leader = f.host(0);
  const LocalTime t_star = leader.now_local();
  // From t_star on, every probe by p0 succeeds and every probe by others
  // fails.
  for (int step = 0; step < 100; ++step) {
    f.sim.run_until(f.sim.now() + Duration::millis(10));
    EXPECT_TRUE(leader.els().am_leader(t_star, leader.now_local()));
    for (int i = 1; i < 5; ++i) {
      const LocalTime t = f.host(i).now_local();
      EXPECT_FALSE(f.host(i).els().am_leader(t, t));
    }
  }
}

}  // namespace
}  // namespace cht
