// PQL lease mechanism baseline: message complexity and revocation behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/pql_lease.h"
#include "sim/simulation.h"

namespace cht {
namespace {

using baselines::PqlProcess;

struct PqlFixture {
  sim::Simulation sim;
  explicit PqlFixture(int n, std::uint64_t seed = 1)
      : sim(make_config(seed)) {
    for (int i = 0; i < n; ++i) {
      sim.add_process(std::make_unique<PqlProcess>());
    }
    sim.start();
  }
  static sim::SimulationConfig make_config(std::uint64_t seed) {
    sim::SimulationConfig c;
    c.seed = seed;
    c.network.gst = RealTime::zero();
    c.network.delta = Duration::millis(5);
    c.network.delta_min = Duration::micros(200);
    return c;
  }
  PqlProcess& process(int i) {
    return sim.process_as<PqlProcess>(ProcessId(i));
  }
};

TEST(PqlTest, LeasesBecomeActiveEverywhere) {
  PqlFixture f(5);
  f.sim.run_until(RealTime::zero() + Duration::millis(200));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(f.process(i).lease_active()) << "process " << i;
  }
}

TEST(PqlTest, RenewalTrafficIsQuadraticInN) {
  // Each renewal period: every grantor exchanges 4 messages with every
  // leaseholder => ~4 * n * (n-1) messages per period.
  auto messages_per_period = [](int n) {
    PqlFixture f(n);
    f.sim.run_until(RealTime::zero() + Duration::millis(200));  // warm up
    const auto before = f.sim.network().stats().sent;
    f.sim.run_until(f.sim.now() + Duration::millis(300));  // 10 periods
    return static_cast<double>(f.sim.network().stats().sent - before) / 10.0;
  };
  const double at5 = messages_per_period(5);
  const double at10 = messages_per_period(10);
  EXPECT_NEAR(at5, 4.0 * 5 * 4, 0.25 * 4 * 5 * 4);
  // Doubling n should roughly quadruple traffic (quadratic scaling).
  EXPECT_GT(at10 / at5, 3.0);
  EXPECT_LT(at10 / at5, 6.0);
}

TEST(PqlTest, WriteRevokesLeases) {
  PqlFixture f(5);
  f.sim.run_until(RealTime::zero() + Duration::millis(200));
  ASSERT_TRUE(f.process(1).lease_active());
  f.process(0).begin_write();
  f.sim.run_until(f.sim.now() + Duration::millis(20));
  EXPECT_FALSE(f.process(1).lease_active());
  EXPECT_EQ(f.process(0).writes_completed(), 1);
}

TEST(PqlTest, WriteCompletesViaExpiryWhenLeaseholderCrashed) {
  PqlFixture f(5);
  f.sim.run_until(RealTime::zero() + Duration::millis(200));
  f.sim.crash(ProcessId(4));
  const RealTime t0 = f.sim.now();
  f.process(0).begin_write();
  ASSERT_TRUE(f.sim.run_until(
      [&] { return f.process(0).writes_completed() == 1; },
      t0 + Duration::seconds(2)));
  // Had to wait out the crashed process's lease.
  EXPECT_GT(f.sim.now() - t0, Duration::millis(100));
}

TEST(PqlTest, SteadyWritesPermanentlyDisableLocalReads) {
  // The paper's contrast: a steady stream of writes keeps revoking leases,
  // so leaseholders (almost) never hold an active lease.
  PqlFixture f(5);
  f.sim.run_until(RealTime::zero() + Duration::millis(200));
  int active_samples = 0;
  int samples = 0;
  // Write every 10ms (renewal interval is 30ms), sampling lease state.
  for (int i = 0; i < 100; ++i) {
    f.process(0).begin_write();
    f.sim.run_until(f.sim.now() + Duration::millis(10));
    for (int p = 1; p < 5; ++p) {
      ++samples;
      if (f.process(p).lease_active()) ++active_samples;
    }
  }
  const double availability =
      static_cast<double>(active_samples) / static_cast<double>(samples);
  EXPECT_LT(availability, 0.5)
      << "local reads should be mostly disabled under steady writes";
}

}  // namespace
}  // namespace cht
