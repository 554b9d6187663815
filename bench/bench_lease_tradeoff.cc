// Ablation — choosing LeasePeriod (DESIGN.md §7).
//
// The paper leaves LeasePeriod as "a suitably defined parameter". It trades
// three costs against each other:
//   - worst-case RMW delay when a leaseholder crashes (the one-time
//     lease-expiry wait is ~LeasePeriod + epsilon);
//   - read unavailability after a *leader* crash (followers must sit out
//     their leases before... no: they hold leases from the dead leader that
//     remain valid but whose batch k grows stale only if commits continue —
//     commits can't continue while leaderless, so reads stay available from
//     the old lease until it expires, then block until the new leader
//     grants; we measure the read-stall window around failover);
//   - renewal traffic (independent of LeasePeriod as long as the renewal
//     interval scales with it; we fix renewal = LeasePeriod/4 and report).
#include <iostream>
#include <memory>

#include "common/bench_util.h"
#include "common/experiment.h"
#include "object/register_object.h"

namespace cht::bench {
namespace {

constexpr Duration kDelta = Duration::millis(10);

struct TradeoffResult {
  Duration crash_write_delay;   // first write after a leaseholder crash
  Duration failover_read_stall; // longest read block around leader failover
  double lease_msgs_per_sec;
};

core::ConfigOverrides lease_overrides(std::int64_t lease_multiple) {
  const Duration period = lease_multiple * kDelta;
  core::ConfigOverrides overrides;
  overrides.lease_period = period;
  overrides.lease_renew_interval = std::max(Duration::millis(5), period / 4);
  return overrides;
}

TradeoffResult run(ExperimentResult& result, std::int64_t lease_multiple,
                   std::uint64_t seed) {
  const auto overrides = lease_overrides(lease_multiple);
  TradeoffResult out;

  // (a) one-time write delay after a leaseholder crash.
  {
    harness::ClusterConfig config;
    config.n = 5;
    config.seed = seed;
    config.delta = kDelta;
    harness::Cluster cluster(config, std::make_shared<object::RegisterObject>(),
                             overrides);
    cluster.await_steady_leader(Duration::seconds(5));
    cluster.run_for(Duration::seconds(1));
    const int leader = cluster.steady_leader();
    cluster.sim().crash(ProcessId((leader + 1) % cluster.n()));
    const RealTime t0 = cluster.sim().now();
    cluster.submit((leader + 2) % cluster.n(),
                   object::RegisterObject::write("x"));
    cluster.await_quiesce(Duration::seconds(60));
    out.crash_write_delay = cluster.sim().now() - t0;
    // lease traffic over one steady second.
    const auto& stats = cluster.sim().network().stats();
    const auto before = stats.sent_of(core::msg::LeaseGrant::kType);
    cluster.run_for(Duration::seconds(1));
    out.lease_msgs_per_sec = static_cast<double>(
        stats.sent_of(core::msg::LeaseGrant::kType) - before);
    const std::string label = "lease-" + std::to_string(lease_multiple) + "x";
    result.config(label, cluster.config(), cluster.options());
    result.observe(label, cluster);
  }

  // (b) read stall around a leader crash.
  {
    harness::ClusterConfig config;
    config.n = 5;
    config.seed = seed + 1;
    config.delta = kDelta;
    harness::Cluster cluster(config, std::make_shared<object::RegisterObject>(),
                             overrides);
    cluster.await_steady_leader(Duration::seconds(5));
    cluster.run_for(Duration::seconds(1));
    const int leader = cluster.steady_leader();
    cluster.sim().crash(ProcessId(leader));
    // Hammer reads at one follower until well after recovery; the max block
    // is the availability gap.
    const int reader = (leader + 1) % cluster.n();
    for (int i = 0; i < result.scaled(200, 40); ++i) {
      cluster.submit(reader, object::RegisterObject::read());
      cluster.run_for(Duration::millis(10));
    }
    cluster.await_quiesce(Duration::seconds(60));
    const auto* blocks =
        cluster.replica(reader).metrics().find_histogram("span.read.block_us");
    out.failover_read_stall =
        Duration::micros(blocks == nullptr ? 0 : blocks->max());
  }
  return out;
}

}  // namespace
}  // namespace cht::bench

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("lease_tradeoff", args);
  result.begin(
      "Ablation: LeasePeriod (delta = 10 ms, renewal = LeasePeriod/4)",
      "Short leases: cheap leaseholder-crash recovery but frequent renewals\n"
      "and a tighter failover window; long leases: rare renewals but a long\n"
      "one-time write stall when a leaseholder dies.");
  result.columns({"LeasePeriod (x delta)", "write delay after lh crash (ms)",
                  "read stall across leader crash (ms)", "LeaseGrant msgs/s"});
  const std::vector<std::int64_t> sweep =
      result.smoke() ? std::vector<std::int64_t>{4, 48}
                     : std::vector<std::int64_t>{4, 8, 12, 24, 48};
  for (const std::int64_t multiple : sweep) {
    const auto r = run(result, multiple, 7000 + static_cast<std::uint64_t>(multiple));
    result.row({metrics::Table::num(multiple), ms2(r.crash_write_delay),
                ms2(r.failover_read_stall),
                metrics::Table::num(r.lease_msgs_per_sec, 0)});
    const std::string prefix = "lease_" + std::to_string(multiple) + "x_";
    result.metric(prefix + "crash_write_delay_us",
                  r.crash_write_delay.to_micros());
    result.metric(prefix + "failover_read_stall_us",
                  r.failover_read_stall.to_micros());
    result.metric(prefix + "lease_msgs_per_sec", r.lease_msgs_per_sec);
  }
  result.note(
      "Expected shape: the write-delay column grows linearly with\n"
      "LeasePeriod (~LeasePeriod + epsilon + commit time); the read\n"
      "stall is dominated by failure detection + new-leader init\n"
      "and grows only mildly; renewal traffic falls as 1/LeasePeriod.");
  result.end();
  return result.finish();
}
