// White-box tests of the enhanced leader service: drive one service
// instance with hand-crafted support grants and check the AmLeader
// predicate's exact semantics (majority counting, same-counter requirement,
// interval coverage, grant disjointness on the granting side).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "leader/enhanced_leader.h"
#include "sim/simulation.h"

namespace cht {
namespace {

using leader::EnhancedLeaderConfig;
using leader::EnhancedLeaderService;
using leader::SupportGrant;

// Hosts a service whose leader() belief is controlled by the test, ticking
// it every kTick; peers are inert message sinks we use as support senders.
class ElsHost : public sim::Process {
 public:
  static constexpr Duration kTick = Duration::millis(5);

  explicit ElsHost(EnhancedLeaderConfig config)
      : els_(*this, [this] { return believed_; }, config) {}

  void on_start() override { tick(); }
  void tick() {
    els_.tick();
    schedule_after(kTick, [this] { tick(); });
  }
  void on_message(const sim::Message& message) override {
    els_.handle_message(message);
  }

  EnhancedLeaderService& els() { return els_; }
  void set_believed(ProcessId p) { believed_ = p; }

 private:
  EnhancedLeaderService els_;
  ProcessId believed_ = ProcessId(0);
};

class Sink : public sim::Process {
 public:
  void on_message(const sim::Message& message) override {
    received.push_back(message);
  }
  std::vector<sim::Message> received;
};

class ElsUnitTest : public ::testing::Test {
 protected:
  ElsUnitTest() : sim_(make_config()) {
    EnhancedLeaderConfig config;
    config.support_duration = Duration::millis(40);
    // Process 0: the host under test. 1-4: sinks used as supporters.
    sim_.add_process(std::make_unique<ElsHost>(config));
    for (int i = 1; i < 5; ++i) sim_.add_process(std::make_unique<Sink>());
    sim_.start();
  }
  static sim::SimulationConfig make_config() {
    sim::SimulationConfig c;
    c.seed = 11;
    c.epsilon = Duration::zero();
    c.network.gst = RealTime::zero();
    c.network.delta = Duration::millis(1);
    c.network.delta_min = Duration::micros(500);
    return c;
  }

  ElsHost& host() { return sim_.process_as<ElsHost>(ProcessId(0)); }
  Sink& sink(int i) { return sim_.process_as<Sink>(ProcessId(i)); }
  void run(Duration d) { sim_.run_until(sim_.now() + d); }
  LocalTime lt(std::int64_t us) { return LocalTime::micros(us); }

  void support(int from, std::int64_t counter, std::int64_t start_us,
               std::int64_t end_us) {
    sink(from).send(ProcessId(0),
                    SupportGrant{counter, lt(start_us), lt(end_us)});
  }

  sim::Simulation sim_;
};

TEST_F(ElsUnitTest, MajorityOfSupportsRequired) {
  // Self-support (host believes itself leader) counts as one of five; two
  // more are needed for a majority of 3.
  host().set_believed(ProcessId(0));
  run(Duration::millis(20));  // several self-grants recorded
  const LocalTime t = host().now_local();
  EXPECT_FALSE(host().els().am_leader(t, t));
  support(1, 1, 0, 1'000'000);
  run(Duration::millis(5));
  EXPECT_FALSE(host().els().am_leader(host().now_local(), host().now_local()));
  support(2, 1, 0, 1'000'000);
  run(Duration::millis(5));
  const LocalTime now = host().now_local();
  EXPECT_TRUE(host().els().am_leader(now, now));
}

TEST_F(ElsUnitTest, CoverageOfBothEndpointsRequired) {
  host().set_believed(ProcessId(0));
  run(Duration::millis(20));
  // Supports covering only early times do not certify later ones.
  support(1, 1, 0, 30'000);
  support(2, 1, 0, 30'000);
  run(Duration::millis(5));
  EXPECT_TRUE(host().els().am_leader(lt(25'000), lt(26'000)));
  EXPECT_FALSE(host().els().am_leader(lt(25'000), lt(50'000)))
      << "t2 beyond every supporter interval must fail";
  EXPECT_FALSE(host().els().am_leader(lt(50'000), lt(60'000)));
}

TEST_F(ElsUnitTest, DifferentCountersDoNotCertifyContinuity) {
  host().set_believed(ProcessId(0));
  run(Duration::millis(20));
  // Supporter 1 covers t1 with counter 1 and t2 with counter 3 (it switched
  // away and back in between): that must NOT certify [t1, t2].
  support(1, 1, 0, 10'000);
  support(1, 3, 20'000, 30'000);
  support(2, 1, 0, 30'000);  // continuous
  run(Duration::millis(5));
  EXPECT_FALSE(host().els().am_leader(lt(5'000), lt(25'000)))
      << "a counter change between covers means interrupted support";
  // Within a single counter's interval it is fine.
  EXPECT_TRUE(host().els().am_leader(lt(25'000), lt(28'000)));
}

TEST_F(ElsUnitTest, SameCounterGapIsAcceptable) {
  // A gap within the same counter means the supporter never supported
  // anyone else (it would have bumped the counter), so covering t1 and t2
  // with the same counter suffices even across a gap.
  host().set_believed(ProcessId(0));
  run(Duration::millis(20));
  support(1, 2, 0, 10'000);
  support(1, 2, 20'000, 30'000);
  support(2, 2, 0, 30'000);
  run(Duration::millis(5));
  EXPECT_TRUE(host().els().am_leader(lt(5'000), lt(25'000)));
}

TEST_F(ElsUnitTest, GrantsToDifferentLeadersAreDisjoint) {
  // Granting side: when the believed leader changes, new grants must start
  // strictly after every interval granted to the previous leader.
  host().set_believed(ProcessId(1));
  run(Duration::millis(25));  // several grants to p1
  host().set_believed(ProcessId(2));
  run(Duration::millis(25));  // grants to p2
  LocalTime p1_max_end = LocalTime::min();
  for (const auto& m : sink(1).received) {
    const auto& g = m.as<SupportGrant>();
    p1_max_end = std::max(p1_max_end, g.end);
  }
  ASSERT_FALSE(sink(2).received.empty());
  for (const auto& m : sink(2).received) {
    const auto& g = m.as<SupportGrant>();
    EXPECT_GT(g.start, p1_max_end)
        << "grant to the new leader overlaps one given to the old leader";
  }
  // And the counter was bumped.
  EXPECT_GT(sink(2).received.front().as<SupportGrant>().counter,
            sink(1).received.front().as<SupportGrant>().counter);
}

TEST_F(ElsUnitTest, SupportsExpireFromHistoryHorizon) {
  host().set_believed(ProcessId(0));
  support(1, 1, 0, 10'000);
  support(2, 1, 0, 10'000);
  run(Duration::millis(20));
  EXPECT_TRUE(host().els().am_leader(lt(5'000), lt(6'000)));
  // After the horizon passes, the old intervals are pruned and can no
  // longer certify anything.
  run(Duration::seconds(11));  // horizon default 10 s
  EXPECT_FALSE(host().els().am_leader(lt(5'000), lt(6'000)));
}

}  // namespace
}  // namespace cht
