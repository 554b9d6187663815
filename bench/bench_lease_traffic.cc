// E5 — Lease maintenance traffic: Theta(n) vs Theta(n^2) (paper S5, PQL).
//
// Claims:
//   - our algorithm renews all leases with n-1 one-way messages per renewal
//     period (only the leader sends LeaseGrant);
//   - PQL needs ~4 * n * (n-1) messages per renewal period (every grantor
//     runs a 4-message, two-round-trip exchange with every leaseholder).
//
// We sweep n and count lease-related messages over a fixed window with no
// client operations, plus the per-pair round trips.
#include <iostream>
#include <memory>

#include "baselines/pql_lease.h"
#include "common/bench_util.h"
#include "common/experiment.h"
#include "core/messages.h"
#include "object/register_object.h"

namespace cht::bench {
namespace {

// Messages per renewal period for the paper's algorithm at cluster size n.
double ours_per_period(ExperimentResult& result, int n, bool observe) {
  harness::ClusterConfig config;
  config.n = n;
  config.seed = 5;
  config.delta = Duration::millis(10);
  harness::Cluster cluster(config, std::make_shared<object::RegisterObject>());
  cluster.await_steady_leader(Duration::seconds(10));
  cluster.run_for(Duration::seconds(1));
  const Duration window = cluster.replica_config().lease_renew_interval * 20;
  const auto& stats = cluster.sim().network().stats();
  const auto before = stats.sent_of(core::msg::LeaseGrant::kType);
  cluster.run_for(window);
  const auto grants = stats.sent_of(core::msg::LeaseGrant::kType) - before;
  if (observe) {
    const std::string label = "ours-n" + std::to_string(n);
    result.config(label, cluster.config(), cluster.options());
    result.observe(label, cluster);
  }
  return static_cast<double>(grants) / 20.0;
}

// Messages per renewal period for PQL at cluster size n.
double pql_per_period(int n) {
  sim::SimulationConfig sc;
  sc.seed = 5;
  sc.network.gst = RealTime::zero();
  sc.network.delta = Duration::millis(10);
  sc.network.delta_min = Duration::micros(500);
  sim::Simulation sim(sc);
  for (int i = 0; i < n; ++i) {
    sim.add_process(std::make_unique<baselines::PqlProcess>());
  }
  sim.start();
  sim.run_until(RealTime::zero() + Duration::millis(300));
  const auto before = sim.network().stats().sent;
  sim.run_until(sim.now() + baselines::PqlProcess::kRenewalInterval * 20);
  return static_cast<double>(sim.network().stats().sent - before) / 20.0;
}

}  // namespace
}  // namespace cht::bench

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("lease_traffic", args);
  result.begin(
      "E5: lease renewal traffic vs cluster size",
      "Claim (paper S5): ours is Theta(n) one-way messages per renewal\n"
      "(leader -> others); PQL is Theta(n^2) with 2 round trips per\n"
      "grantor-leaseholder pair (4 * n * (n - 1) messages).");
  result.columns({"n", "ours msgs/period", "ours predicted (n-1)",
                  "pql msgs/period", "pql predicted 4n(n-1)", "pql/ours"});
  const std::vector<int> sweep = result.smoke()
                                     ? std::vector<int>{3, 7}
                                     : std::vector<int>{3, 5, 7, 9, 11, 13, 15};
  for (const int n : sweep) {
    const double ours = ours_per_period(result, n, n == sweep.back());
    const double pql = pql_per_period(n);
    result.row({metrics::Table::num(static_cast<std::int64_t>(n)),
                metrics::Table::num(ours, 1),
                metrics::Table::num(static_cast<std::int64_t>(n - 1)),
                metrics::Table::num(pql, 1),
                metrics::Table::num(static_cast<std::int64_t>(4 * n * (n - 1))),
                metrics::Table::num(pql / ours, 1)});
    result.metric("ours_msgs_per_period_n" + std::to_string(n), ours);
    result.metric("pql_msgs_per_period_n" + std::to_string(n), pql);
  }
  result.note(
      "Expected shape: 'ours' matches n-1 (linear); 'pql' matches\n"
      "4n(n-1) (quadratic); the ratio grows ~4n.\n"
      "Latency per renewal: ours is one one-way message; PQL takes\n"
      "two round trips before a guarantee activates.");
  result.end();
  return result.finish();
}
