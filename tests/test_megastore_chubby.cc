// The Megastore/Chubby vulnerability (paper Section 5): a writer cut off
// from Chubby cannot invalidate a straggler replica, so its writes block
// forever — while our algorithm's lease-expiry wait needs no external
// arbiter and always completes.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/megastore_chubby.h"
#include "harness/cluster.h"
#include "object/register_object.h"

namespace cht {
namespace {

using baselines::ChubbyService;
using baselines::MegastoreNode;

struct Fixture {
  sim::Simulation sim;
  // Process 0: Chubby. Processes 1..4: Megastore nodes.
  explicit Fixture(std::uint64_t seed = 1) : sim(make_config(seed)) {
    sim.add_process(std::make_unique<ChubbyService>());
    for (int i = 1; i <= 4; ++i) {
      sim.add_process(std::make_unique<MegastoreNode>(ProcessId(0)));
    }
    sim.start();
  }
  static sim::SimulationConfig make_config(std::uint64_t seed) {
    sim::SimulationConfig c;
    c.seed = seed;
    c.network.gst = RealTime::zero();
    c.network.delta = Duration::millis(5);
    c.network.delta_min = Duration::micros(500);
    return c;
  }
  ChubbyService& chubby() { return sim.process_as<ChubbyService>(ProcessId(0)); }
  MegastoreNode& node(int i) {
    return sim.process_as<MegastoreNode>(ProcessId(i));
  }
  void run(Duration d) { sim.run_until(sim.now() + d); }
};

TEST(MegastoreChubbyTest, SessionsEstablishAndExpire) {
  Fixture f;
  f.run(Duration::millis(100));
  EXPECT_TRUE(f.chubby().session_alive(1));
  f.node(1).stop_keepalives();
  f.run(Duration::millis(300));  // > the 120ms session TTL
  EXPECT_FALSE(f.chubby().session_alive(1));
  EXPECT_TRUE(f.chubby().session_alive(2));
}

TEST(MegastoreChubbyTest, WriteCompletesWhenAllAcked) {
  Fixture f;
  f.run(Duration::millis(100));
  f.node(1).begin_write({});
  EXPECT_EQ(f.node(1).writes_completed(), 1);
}

TEST(MegastoreChubbyTest, WriteCompletesAfterStragglerSessionExpires) {
  Fixture f;
  f.run(Duration::millis(100));
  // Node 3 crashes (stops acking and stops keepalives).
  f.sim.crash(ProcessId(3));
  f.node(1).begin_write({3});
  EXPECT_EQ(f.node(1).writes_pending(), 1);
  // Once Chubby sees node 3's session lapse, the invalidation succeeds.
  const RealTime deadline = f.sim.now() + Duration::seconds(2);
  EXPECT_TRUE(f.sim.run_until(
      [&] { return f.node(1).writes_completed() == 1; }, deadline));
  // The wait was about one session TTL.
  EXPECT_GT(f.sim.now() - RealTime::zero(), Duration::millis(100));
}

TEST(MegastoreChubbyTest, WriterCutOffFromChubbyBlocksForever) {
  // The paper's scenario: the writer loses contact with Chubby while other
  // processes keep theirs. The straggler can never be invalidated from the
  // writer's point of view: the write stays pending indefinitely.
  Fixture f;
  f.run(Duration::millis(100));
  f.sim.crash(ProcessId(3));  // the straggler
  // Cut the writer (node 1) off from Chubby in both directions.
  f.sim.network().set_link_down(ProcessId(1), ProcessId(0), true);
  f.sim.network().set_link_down(ProcessId(0), ProcessId(1), true);
  f.node(1).begin_write({3});
  // Simulate ten minutes: the straggler's session expired long ago at
  // Chubby, but the writer cannot observe that.
  f.run(Duration::seconds(600));
  EXPECT_FALSE(f.chubby().session_alive(3));
  EXPECT_EQ(f.node(1).writes_completed(), 0);
  EXPECT_EQ(f.node(1).writes_pending(), 1);
  // "Manual intervention by an operator": healing the link fixes it.
  f.sim.network().set_link_down(ProcessId(1), ProcessId(0), false);
  f.sim.network().set_link_down(ProcessId(0), ProcessId(1), false);
  const RealTime deadline = f.sim.now() + Duration::seconds(2);
  EXPECT_TRUE(f.sim.run_until(
      [&] { return f.node(1).writes_completed() == 1; }, deadline));
}

TEST(MegastoreChubbyTest, OurAlgorithmHasNoSuchDependency) {
  // Same shape of failure against our algorithm: one replica crashes, the
  // leader is NOT cut off from anything it depends on (there is no Chubby);
  // the write completes after the self-timed lease-expiry wait.
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = 5;
  config.delta = Duration::millis(10);
  harness::Cluster cluster(config, std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  cluster.sim().crash(ProcessId((leader + 1) % cluster.n()));
  cluster.submit((leader + 2) % cluster.n(),
                 object::RegisterObject::write("completes"));
  EXPECT_TRUE(cluster.await_quiesce(Duration::seconds(10)))
      << "our write must complete without any external arbiter";
}

}  // namespace
}  // namespace cht
