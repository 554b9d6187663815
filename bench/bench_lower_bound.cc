// E8 — Necessity of blocking (paper Section 4, Theorem 4.1).
//
// The theorem: any linearizable implementation has a run in which reads at
// n-1 processes block for at least alpha = min(epsilon, delta/2) - 2*gamma
// real time (gamma = minimum op-issue spacing, negligible). Its proof uses
// shifting executions: delay one process by alpha + 2*gamma; the shifted run
// is indistinguishable and still legal, but if two processes had fast reads,
// the shifted run would order a v0-read after a completed v1-read —
// violating linearizability.
//
// Three executable parts:
//   (1) the shift-legality arithmetic: for each (epsilon, delta) we verify
//       that shifting by s = min(epsilon, delta/2) keeps clocks within
//       epsilon/2 of real time and delays within [0, delta] — the exact
//       side conditions the proof needs;
//   (2) the predicted violation, realized: an algorithm whose reads answer
//       instantly from local state (ReadPolicy::kUnsafeLocal) — i.e. reads
//       "faster than alpha" — produces a history our checker rejects;
//   (3) our algorithm's worst-case blocking (<= 3*delta) against alpha:
//       within a constant factor of optimal when delta = Theta(epsilon).
#include <iostream>
#include <memory>

#include "checker/linearizability.h"
#include "common/bench_util.h"
#include "common/experiment.h"
#include "object/register_object.h"

namespace cht::bench {
namespace {

struct ShiftCheck {
  Duration shift;
  bool clock_in_bounds;
  bool delay_to_in_bounds;
  bool delay_from_in_bounds;
};

// The proof's run r: clocks epsilon/2 ahead, all delays delta/2. Run r'
// shifts process p later by s: clock_p slower by s, delays to p + s, delays
// from p - s. Legal iff the three shifted quantities stay within the model.
ShiftCheck check_shift(Duration epsilon, Duration delta) {
  const Duration s = std::min(epsilon, delta / 2);
  ShiftCheck check;
  check.shift = s;
  // Clock: epsilon/2 - s must be >= -epsilon/2  <=>  s <= epsilon.
  check.clock_in_bounds = s <= epsilon;
  // Delay to p: delta/2 + s <= delta  <=>  s <= delta/2.
  check.delay_to_in_bounds = s <= delta / 2;
  // Delay from p: delta/2 - s >= 0    <=>  s <= delta/2.
  check.delay_from_in_bounds = s <= delta / 2;
  return check;
}

// Part (2): reads faster than the bound => linearizability violation.
bool demonstrate_violation(ExperimentResult& result, Duration delta) {
  const std::uint64_t max_seed = result.smoke() ? 10 : 30;
  for (std::uint64_t seed = 1; seed <= max_seed; ++seed) {
    harness::ClusterConfig config;
    config.n = 5;
    config.seed = seed;
    config.delta = delta;
    core::ConfigOverrides overrides;
    overrides.read_policy = core::ReadPolicy::kUnsafeLocal;
    harness::Cluster cluster(config, std::make_shared<object::RegisterObject>(),
                             overrides);
    if (!cluster.await_steady_leader(Duration::seconds(5))) continue;
    cluster.run_for(Duration::seconds(1));
    const int leader = cluster.steady_leader();
    for (int i = 0; i < 40; ++i) {
      cluster.submit(leader, object::RegisterObject::write(std::to_string(i)));
      cluster.run_for(delta / 3);
      cluster.submit((leader + 1) % cluster.n(), object::RegisterObject::read());
      cluster.run_for(delta * 2);
    }
    cluster.await_quiesce(Duration::seconds(30));
    const auto check =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    if (!check.linearizable) {
      result.config("unsafe-local", cluster.config(), cluster.options());
      return true;
    }
  }
  return false;
}

// Part (3): measured worst-case blocking of the real algorithm.
Duration measured_blocking(ExperimentResult& result, Duration epsilon,
                           Duration delta, const std::string& label) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = 88;
  config.delta = delta;
  config.epsilon = epsilon;
  harness::Cluster cluster(config, std::make_shared<object::RegisterObject>());
  cluster.await_steady_leader(Duration::seconds(10));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  for (int i = 0; i < result.scaled(150, 30); ++i) {
    cluster.submit((leader + 1) % cluster.n(),
                   object::RegisterObject::write(std::to_string(i)));
    cluster.run_for(delta / 2);
    for (int p = 0; p < cluster.n(); ++p) {
      cluster.submit(p, object::RegisterObject::read());
    }
    cluster.run_for(delta);
  }
  cluster.await_quiesce(Duration::seconds(60));
  std::int64_t worst_us = 0;
  for (int p = 0; p < cluster.n(); ++p) {
    const auto* blocks =
        cluster.replica(p).metrics().find_histogram("span.read.block_us");
    if (blocks != nullptr) worst_us = std::max(worst_us, blocks->max());
  }
  result.observe(label, cluster);
  return Duration::micros(worst_us);
}

}  // namespace
}  // namespace cht::bench

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("lower_bound", args);

  result.begin(
      "E8a: shifting-execution legality (Theorem 4.1 side conditions)",
      "For each (epsilon, delta), shifting one process by\n"
      "s = min(epsilon, delta/2) must keep the run legal: clock within\n"
      "epsilon/2 of real time, delays within [0, delta].");
  result.columns({"epsilon (ms)", "delta (ms)",
                  "alpha = min(eps, delta/2) (ms)", "clock ok", "delay-to ok",
                  "delay-from ok"});
  for (const auto& [e_ms, d_ms] :
       std::vector<std::pair<int, int>>{{1, 10}, {5, 10}, {10, 10},
                                        {20, 10}, {1, 100}, {50, 20}}) {
    const auto c = check_shift(Duration::millis(e_ms), Duration::millis(d_ms));
    result.row({metrics::Table::num(static_cast<std::int64_t>(e_ms)),
                metrics::Table::num(static_cast<std::int64_t>(d_ms)),
                ms2(c.shift), c.clock_in_bounds ? "yes" : "NO",
                c.delay_to_in_bounds ? "yes" : "NO",
                c.delay_from_in_bounds ? "yes" : "NO"});
  }
  result.end();

  result.begin(
      "E8b: the predicted violation, realized",
      "An algorithm whose reads answer instantly from local state (blocking\n"
      "< alpha) must violate linearizability in some run; we search seeds\n"
      "until the checker exhibits one.");
  const bool violated = demonstrate_violation(result, Duration::millis(10));
  std::cout << "linearizability violation found with instant local reads: "
            << (violated ? "YES (as Theorem 4.1 predicts)" : "no (unexpected)")
            << "\n";
  result.metric("unsafe_local_violation_found",
                static_cast<std::int64_t>(violated ? 1 : 0));
  result.end();

  result.begin(
      "E8c: our algorithm against the bound",
      "Measured worst-case read blocking vs the alpha lower bound: within a\n"
      "constant factor when delta = Theta(epsilon) (paper S4 conclusion).");
  result.columns({"epsilon (ms)", "delta (ms)", "alpha (ms)",
                  "ours max block (ms)", "ours bound 3*delta (ms)",
                  "ratio ours/alpha"});
  for (const auto& [e_ms, d_ms] :
       std::vector<std::pair<int, int>>{{10, 10}, {5, 10}, {20, 20}}) {
    const Duration epsilon = Duration::millis(e_ms);
    const Duration delta = Duration::millis(d_ms);
    const Duration alpha = std::min(epsilon, delta / 2);
    const std::string label =
        "eps" + std::to_string(e_ms) + "-delta" + std::to_string(d_ms);
    const Duration measured = measured_blocking(result, epsilon, delta, label);
    result.row({metrics::Table::num(static_cast<std::int64_t>(e_ms)),
                metrics::Table::num(static_cast<std::int64_t>(d_ms)),
                ms2(alpha), ms2(measured), ms2(3 * delta),
                metrics::Table::num(static_cast<double>(measured.to_micros()) /
                                        alpha.to_micros(),
                                    2)});
    result.metric("max_block_us_" + label, measured.to_micros());
  }
  result.note(
      "Expected shape: all legality checks pass; E8b finds the\n"
      "violation; E8c ratio is a small constant (<= 6 = 3delta /\n"
      "(delta/2)) when delta = Theta(epsilon).");
  result.end();
  return result.finish();
}
