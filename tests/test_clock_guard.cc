// Clock-health guard (core/clock_guard.h) and its integration: skew
// evidence soundness (never a false positive within the model's epsilon),
// degraded read modes in every lease-serving stack, lazy re-qualification,
// the exposure-window invariant accounting, and the chtread durability
// stored-batch fallback.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/pql_lease.h"
#include "chaos/invariants.h"
#include "checker/linearizability.h"
#include "core/clock_guard.h"
#include "harness/cluster.h"
#include "object/register_object.h"
#include "sim/simulation.h"

namespace cht {
namespace {

using core::ClockGuardConfig;
using core::ClockSkewGuard;

LocalTime lt(std::int64_t ms) { return LocalTime::zero() + Duration::millis(ms); }
RealTime rt(std::int64_t ms) { return RealTime::zero() + Duration::millis(ms); }

ClockGuardConfig guard_config() {
  return ClockGuardConfig::defaults_for(Duration::millis(10),
                                        Duration::millis(1));
}

// --- Evidence soundness ------------------------------------------------------

TEST(ClockSkewGuardTest, TripsOnFastReceiverEvidence) {
  ClockSkewGuard guard(guard_config());
  // Receiver's clock reads 15ms after a stamp of 0 with delta = 10ms:
  // lb = 15 - 0 - 10 = 5ms > epsilon.
  EXPECT_TRUE(guard.observe(lt(0), lt(15), rt(15)));
  EXPECT_TRUE(guard.suspect());
  ASSERT_EQ(guard.transitions().size(), 1u);
  EXPECT_TRUE(guard.transitions()[0].suspect);
}

TEST(ClockSkewGuardTest, TripsOnFastSenderEvidence) {
  ClockSkewGuard guard(guard_config());
  // The stamp is *ahead* of the receiver's clock: flight is nonnegative, so
  // lb = send - recv = 5ms of provable skew.
  EXPECT_TRUE(guard.observe(lt(10), lt(5), rt(10)));
  EXPECT_TRUE(guard.suspect());
}

TEST(ClockSkewGuardTest, NeverTripsWithinModelBounds) {
  // Grid over every in-model combination: pairwise offset difference within
  // +-epsilon and flight within [0, delta]. The lower bound can reach but
  // never exceed epsilon, so the guard must stay quiet.
  ClockSkewGuard guard(guard_config());
  for (std::int64_t offset_us = -1000; offset_us <= 1000; offset_us += 100) {
    for (std::int64_t flight_us = 0; flight_us <= 10000; flight_us += 500) {
      const LocalTime sent = LocalTime::zero() + Duration::seconds(1);
      const LocalTime recv =
          sent + Duration::micros(flight_us) + Duration::micros(offset_us);
      EXPECT_FALSE(guard.observe(sent, recv, rt(1000)))
          << "offset=" << offset_us << "us flight=" << flight_us << "us";
      EXPECT_FALSE(guard.suspect());
    }
  }
  EXPECT_TRUE(guard.transitions().empty());
}

TEST(ClockSkewGuardTest, IgnoresUnstampedMessages) {
  // Hand-crafted test messages carry the LocalTime::min() sentinel; the
  // guard must not treat the sentinel as an ancient (wildly skewed) stamp.
  ClockSkewGuard guard(guard_config());
  EXPECT_FALSE(guard.observe(LocalTime::min(), lt(5000), rt(5000)));
  EXPECT_FALSE(guard.suspect());
}

TEST(ClockSkewGuardTest, DisabledGuardNeverSuspects) {
  ClockGuardConfig config = guard_config();
  config.enabled = false;
  ClockSkewGuard guard(config);
  EXPECT_FALSE(guard.observe(lt(0), lt(5000), rt(5000)));
  EXPECT_FALSE(guard.suspect());
}

// --- Re-qualification --------------------------------------------------------

TEST(ClockSkewGuardTest, RequalifiesOnlyAfterCleanWindow) {
  ClockSkewGuard guard(guard_config());  // requalify_window = 21ms
  ASSERT_TRUE(guard.observe(lt(0), lt(15), rt(15)));  // bad at local 15ms
  // Clean samples inside the window keep it suspect.
  EXPECT_FALSE(guard.observe(lt(20), lt(25), rt(25)));
  EXPECT_FALSE(guard.observe(lt(30), lt(35), rt(35)));
  EXPECT_TRUE(guard.suspect());
  // First clean sample at least 21ms past the last bad one clears it.
  EXPECT_TRUE(guard.observe(lt(31), lt(36), rt(36)));
  EXPECT_FALSE(guard.suspect());
  ASSERT_EQ(guard.transitions().size(), 2u);
  EXPECT_FALSE(guard.transitions()[1].suspect);
}

TEST(ClockSkewGuardTest, FreshBadEvidenceRestartsTheWindow) {
  ClockSkewGuard guard(guard_config());
  ASSERT_TRUE(guard.observe(lt(0), lt(15), rt(15)));
  // More bad evidence at local 30ms: no new transition, but the clean
  // window must now count from 30ms, not 15ms.
  EXPECT_FALSE(guard.observe(lt(10), lt(30), rt(30)));
  EXPECT_FALSE(guard.observe(lt(40), lt(45), rt(45)));  // 45 - 30 < 21
  EXPECT_TRUE(guard.suspect());
  EXPECT_TRUE(guard.observe(lt(46), lt(51), rt(51)));  // 51 - 30 >= 21
  EXPECT_FALSE(guard.suspect());
}

// --- chtread: degraded reads and lease gating --------------------------------

harness::ClusterConfig chtread_config(std::uint64_t seed) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  config.epsilon = Duration::millis(1);
  return config;
}

// The guard-on counterpart of test_robustness.cc's fast-clock scenario: the
// victim's skewed clock is detected from incoming stamps, its reads degrade
// to the consensus path (completing promptly and fresh instead of stalling
// for the 30s clamp decay), and the full history stays linearizable.
TEST(ClockGuardChtreadTest, SkewedReplicaDegradesReadsAndStaysLinearizable) {
  harness::Cluster cluster(chtread_config(61),
                           std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int victim = (leader + 1) % cluster.n();
  cluster.submit(leader, object::RegisterObject::write("current"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));

  cluster.sim().set_clock_offset(ProcessId(victim), Duration::seconds(30));
  // Any message arriving at the victim now shows ~30s of provable skew.
  cluster.run_for(Duration::millis(50));
  EXPECT_TRUE(cluster.replica(victim).clock_guard().suspect());
  EXPECT_GE(cluster.replica(victim).clock_guard().transitions().size(), 1u);

  const RealTime before = cluster.sim().now();
  cluster.submit(victim, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  // Degraded, not stalled: the read rode the RMW path and completed in a
  // few message delays, far below the 30s the unguarded stall costs.
  EXPECT_LT(cluster.sim().now() - before, Duration::seconds(1));
  EXPECT_EQ(*cluster.history().ops().back().response, "current");
  EXPECT_GE(cluster.replica(victim).metrics().value("reads.degraded"), 1);
  EXPECT_GE(cluster.replica(victim).metrics().value("clock.suspect_transitions"),
            1);
  const auto full =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(full.linearizable) << full.explanation;
}

// A suspect *leader* must stop issuing leases (its lease timestamps are
// measured on the distrusted clock) and serve its own reads through
// consensus; once its offset is healed and the clamp decays, it
// re-qualifies and lease reads resume.
TEST(ClockGuardChtreadTest, SuspectLeaderStopsLeasesAndRequalifies) {
  harness::Cluster cluster(chtread_config(62),
                           std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  cluster.submit(leader, object::RegisterObject::write("v1"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));

  // 50ms fast: replies from followers trip the leader's guard immediately.
  cluster.sim().set_clock_offset(ProcessId(leader), Duration::millis(50));
  cluster.submit(leader, object::RegisterObject::write("v2"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  ASSERT_TRUE(cluster.replica(leader).clock_guard().suspect());

  // The leader's own read degrades but still answers, fresh.
  cluster.submit(leader, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_EQ(*cluster.history().ops().back().response, "v2");
  EXPECT_GE(cluster.replica(leader).metrics().value("reads.degraded"), 1);

  // Heal: the clamp holds the clock ~50ms ahead until real time catches up,
  // the stale evidence decays, a clean window passes, and the guard clears.
  cluster.sim().set_clock_offset(ProcessId(leader), Duration::zero());
  cluster.run_for(Duration::millis(400));
  EXPECT_FALSE(cluster.replica(leader).clock_guard().suspect());

  // Lease reads work again: a follower read completes with the live value.
  cluster.submit((leader + 1) % cluster.n(), object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_EQ(*cluster.history().ops().back().response, "v2");
  const auto full =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(full.linearizable) << full.explanation;
}

// --- Raft: lease reads fall back to ReadIndex --------------------------------

TEST(ClockGuardRaftTest, SuspectLeaderDemotesLeaseReadsToReadIndex) {
  harness::ClusterConfig config = chtread_config(63);
  harness::RaftCluster cluster(config,
                               std::make_shared<object::RegisterObject>(),
                               raft::ReadMode::kLeaderLease);
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.leader();
  cluster.submit(leader, object::RegisterObject::write("committed"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));

  cluster.sim().set_clock_offset(ProcessId(leader), Duration::seconds(30));
  cluster.run_for(Duration::millis(100));
  EXPECT_TRUE(cluster.replica(leader).clock_guard().suspect());

  // Lease-mode reads still complete (via the clock-free ReadIndex round)
  // and are counted as degraded.
  cluster.submit(leader, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  EXPECT_EQ(*cluster.history().ops().back().response, "committed");
  EXPECT_GE(cluster.replica(leader).metrics().value("reads.degraded"), 1);
  const auto full =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(full.linearizable) << full.explanation;
}

// --- PQL: lease_active degrades ----------------------------------------------

TEST(ClockGuardPqlTest, SuspectProcessReportsLeaseInactive) {
  sim::SimulationConfig sc;
  sc.seed = 7;
  sc.network.gst = RealTime::zero();
  sc.network.delta = Duration::millis(5);
  sc.network.delta_min = Duration::micros(200);
  sim::Simulation sim(sc);
  baselines::PqlConfig config;
  config.clock_guard =
      ClockGuardConfig::defaults_for(Duration::millis(5), Duration::millis(1));
  for (int i = 0; i < 5; ++i) {
    sim.add_process(std::make_unique<baselines::PqlProcess>(config));
  }
  sim.start();
  sim.run_until(RealTime::zero() + Duration::millis(200));
  auto& victim = sim.process_as<baselines::PqlProcess>(ProcessId(1));
  ASSERT_TRUE(victim.lease_active());

  sim.set_clock_offset(ProcessId(1), Duration::millis(100));
  sim.run_until(sim.now() + Duration::millis(100));
  EXPECT_TRUE(victim.clock_guard().suspect());
  EXPECT_GE(victim.metrics().value("clock.suspect_transitions"), 1);
  // The guarantees may still be formally unexpired, but the guard forces the
  // quorum path.
  EXPECT_FALSE(victim.lease_active());
  EXPECT_GE(victim.metrics().value("reads.degraded"), 1);
}

// --- Exposure-window accounting and durability fallback ----------------------

// Minimal adapter over a hand-crafted history: enough surface for
// check_invariants to run, with committed/durable id sets and guard
// transition timelines scripted by the test.
class FakeAdapter final : public chaos::ClusterAdapter {
 public:
  FakeAdapter()
      : sim_(sim::SimulationConfig{}),
        model_(std::make_shared<object::RegisterObject>()) {}

  const std::string& protocol() const override {
    static const std::string kName = "fake";
    return kName;
  }
  sim::Simulation& sim() override { return sim_; }
  int n() const override { return 3; }
  const object::ObjectModel& model() const override { return *model_; }
  checker::HistoryRecorder& history() override { return history_; }
  const checker::HistoryRecorder& history() const override { return history_; }
  void submit(int, object::Operation) override {}
  bool crashed(int) const override { return false; }
  void restart(int) override {}
  std::vector<OperationId> committed_op_ids_of(int) override {
    return committed_;
  }
  std::vector<OperationId> durable_op_ids_of(int) override {
    return durable_.empty() ? committed_ : durable_;
  }
  std::vector<core::ClockSkewGuard::Transition> guard_transitions_of(
      int replica) override {
    if (replica < static_cast<int>(transitions_.size())) {
      return transitions_[static_cast<std::size_t>(replica)];
    }
    return {};
  }
  int leader() override { return 0; }
  bool await_quiesce(Duration) override { return true; }
  std::size_t submitted() const override { return history_.ops().size(); }
  std::size_t completed() const override { return history_.completed_count(); }
  std::vector<std::string> protocol_invariants() override { return {}; }
  std::int64_t leadership_changes() override { return 0; }
  void merge_metrics_into(metrics::Registry&) override {}

  sim::Simulation sim_;
  std::shared_ptr<const object::ObjectModel> model_;
  checker::HistoryRecorder history_;
  std::vector<OperationId> committed_;
  std::vector<OperationId> durable_;
  std::vector<std::vector<core::ClockSkewGuard::Transition>> transitions_;
};

void record(checker::HistoryRecorder& h, int process, object::Operation op,
            std::int64_t invoked_ms, std::int64_t responded_ms,
            const std::string& response, OperationId id = OperationId{}) {
  const auto token = h.begin(ProcessId(process), std::move(op), rt(invoked_ms));
  h.end(token, response, rt(responded_ms));
  if (id.process.valid()) h.set_id(token, id);
}

// Simulated time only advances by draining events; park a no-op so the
// adapter's sim().now() (the exposure-window end) is past the history.
void advance_to(sim::Simulation& sim, RealTime t) {
  sim.after(t - sim.now(), [] {});
  sim.run_until(t);
}

chaos::NemesisProfile stale_profile() {
  chaos::NemesisProfile p;
  p.name = "test";
  p.allows_stale_reads = true;
  return p;
}

chaos::ExposureInput exposure_for(std::int64_t first_skew_ms,
                                  std::int64_t heal_ms) {
  chaos::ExposureInput e;
  e.clock_guard = true;
  e.delta = Duration::millis(10);
  e.epsilon = Duration::millis(1);
  e.skew_max = Duration::millis(5);
  e.first_skew = rt(first_skew_ms);
  e.heal_time = rt(heal_ms);
  return e;
}

// A stale read inside the exposure window is excused by the second pass.
TEST(ExposureWindowTest, StaleReadInsideWindowIsExcused) {
  FakeAdapter fake;
  advance_to(fake.sim_, rt(10000));
  record(fake.history_, 0, object::RegisterObject::write("a"), 100, 110, "ok");
  record(fake.history_, 0, object::RegisterObject::write("b"), 200, 210, "ok");
  // Stale read: returns "a" strictly after "b" completed, inside the skew
  // window [300, heal + drain).
  record(fake.history_, 1, object::RegisterObject::read(), 400, 410, "a");

  const auto report = chaos::check_invariants(fake, stale_profile(), true, 0,
                                              exposure_for(300, 1000));
  EXPECT_TRUE(report.violations.empty())
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.reads_excused, 1u);
}

// The same stale read before any skew was injected is a real bug.
TEST(ExposureWindowTest, StaleReadOutsideWindowFails) {
  FakeAdapter fake;
  advance_to(fake.sim_, rt(10000));
  record(fake.history_, 0, object::RegisterObject::write("a"), 100, 110, "ok");
  record(fake.history_, 0, object::RegisterObject::write("b"), 200, 210, "ok");
  record(fake.history_, 1, object::RegisterObject::read(), 400, 410, "a");

  // Skew first injected at 5000ms: the read at 400ms predates every skewed
  // clock and must have been fresh.
  const auto report = chaos::check_invariants(fake, stale_profile(), true, 0,
                                              exposure_for(5000, 6000));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("outside clock-skew exposure"),
            std::string::npos)
      << report.violations[0];
  EXPECT_EQ(report.reads_excused, 0u);
}

// While *every* replica is clock-suspect no lease read is served anywhere,
// so a stale read wholly inside the all-suspect span is not excused.
TEST(ExposureWindowTest, AllSuspectSpanIsCarvedOut) {
  FakeAdapter fake;
  advance_to(fake.sim_, rt(10000));
  record(fake.history_, 0, object::RegisterObject::write("a"), 100, 110, "ok");
  record(fake.history_, 0, object::RegisterObject::write("b"), 200, 210, "ok");
  record(fake.history_, 1, object::RegisterObject::read(), 400, 410, "a");
  // All three replicas suspect across [350, 500): the read at [400, 410]
  // falls wholly inside the carve-out.
  for (int i = 0; i < 3; ++i) {
    fake.transitions_.push_back({{rt(350), true}, {rt(500), false}});
  }
  const auto report = chaos::check_invariants(fake, stale_profile(), true, 0,
                                              exposure_for(300, 1000));
  ASSERT_EQ(report.violations.size(), 1u);

  // With one replica never suspect, the carve-out vanishes and the read is
  // excusable again.
  fake.transitions_.back().clear();
  const auto lenient = chaos::check_invariants(fake, stale_profile(), true, 0,
                                               exposure_for(300, 1000));
  EXPECT_TRUE(lenient.violations.empty());
}

// With the guard off, the legacy fallback still checks the RMW sub-history
// (and tolerates the stale read unconditionally).
TEST(ExposureWindowTest, GuardOffKeepsLegacyRmwSubhistoryCheck) {
  FakeAdapter fake;
  advance_to(fake.sim_, rt(10000));
  record(fake.history_, 0, object::RegisterObject::write("a"), 100, 110, "ok");
  record(fake.history_, 0, object::RegisterObject::write("b"), 200, 210, "ok");
  record(fake.history_, 1, object::RegisterObject::read(), 400, 410, "a");
  chaos::ExposureInput off;  // defaults: guard off
  const auto report =
      chaos::check_invariants(fake, stale_profile(), true, 0, off);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.reads_excused, 0u);
}

// Durability accounting falls back from the applied prefix to stored-batch
// contents: an acked write a replica durably holds but has not yet
// re-applied at check time must not be reported rolled back.
TEST(DurabilityFallbackTest, StoredButUnappliedWriteIsNotAViolation) {
  FakeAdapter fake;
  advance_to(fake.sim_, rt(1000));
  const OperationId id{ProcessId(0), 7};
  record(fake.history_, 0, object::RegisterObject::write("w"), 100, 110, "ok",
         id);
  // Applied prefix (committed_op_ids_of) is empty everywhere, but the write
  // survives in stored batches (durable_op_ids_of).
  fake.durable_ = {id};
  chaos::NemesisProfile calm;
  calm.name = "calm";
  const auto report = chaos::check_invariants(fake, calm, true);
  for (const auto& v : report.violations) {
    EXPECT_EQ(v.find("durability"), std::string::npos) << v;
  }
}

}  // namespace
}  // namespace cht
