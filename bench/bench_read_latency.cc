// E4 — Read latency across algorithms (paper S5 comparison).
//
// Claim: the paper's algorithm serves reads locally (0 network hops), so
// read latency is unaffected by delta; Raft ReadIndex reads pay a forward
// hop plus a majority round (>= 2 * delta when issued at a follower); reads
// forwarded to the leader (Spanner option (a)) pay a round trip; conflict-
// blind blocking (PQL-style) inflates tail latency under writes even for
// reads that touch unrelated keys.
//
// Workload: geo-style delta = 25 ms, read-heavy mix (95% reads) over 4 keys,
// with a moderate write stream on one hot key.
#include <iostream>
#include <memory>

#include "common/bench_util.h"
#include "common/experiment.h"
#include "object/kv_object.h"

namespace cht::bench {
namespace {

constexpr Duration kDelta = Duration::millis(25);

harness::ClusterConfig geo_config() {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = 4242;
  config.delta = kDelta;
  return config;
}

template <class ClusterT>
void drive(ClusterT& cluster, Rng& rng, int steps) {
  const std::vector<std::string> keys = {"hot", "a", "b", "c"};
  for (int step = 0; step < steps; ++step) {
    // One write per step on the hot key...
    cluster.submit(static_cast<int>(rng.next_below(5)),
                   object::KVObject::put("hot", std::to_string(step)));
    // ...and ~19 reads spread over all keys and processes.
    for (int r = 0; r < 19; ++r) {
      cluster.submit(static_cast<int>(rng.next_below(5)),
                     object::KVObject::get(keys[rng.next_below(keys.size())]));
    }
    cluster.run_for(Duration::millis(50));
  }
  cluster.await_quiesce(Duration::seconds(120));
}

metrics::LatencyRecorder run_core(ExperimentResult& result,
                                  const std::string& label,
                                  core::ReadPolicy policy) {
  Rng rng(1);
  core::ConfigOverrides overrides;
  overrides.read_policy = policy;
  harness::Cluster cluster(geo_config(), std::make_shared<object::KVObject>(),
                           overrides);
  cluster.await_steady_leader(Duration::seconds(10));
  cluster.run_for(Duration::seconds(2));
  drive(cluster, rng, result.scaled(400, 10));
  result.config(label, cluster.config(), cluster.options());
  result.observe(label, cluster);
  const auto reads = split_latencies(cluster.model(), cluster.history()).reads;
  result.latency(label, reads);
  return reads;
}

metrics::LatencyRecorder run_raft(ExperimentResult& result,
                                  const std::string& label,
                                  raft::ReadMode mode) {
  Rng rng(1);
  harness::RaftCluster cluster(geo_config(),
                               std::make_shared<object::KVObject>(), mode);
  cluster.await_leader(Duration::seconds(10));
  cluster.run_for(Duration::seconds(2));
  drive(cluster, rng, result.scaled(400, 10));
  result.config(label, cluster.config());
  result.observe(label, cluster);
  const auto reads = split_latencies(cluster.model(), cluster.history()).reads;
  result.latency(label, reads);
  return reads;
}

void add_row(ExperimentResult& result, const std::string& name,
             const metrics::LatencyRecorder& lat) {
  result.row({name, metrics::Table::num(static_cast<std::int64_t>(lat.count())),
              ms2(lat.p50()), ms2(lat.percentile(0.9)), ms2(lat.p99()),
              ms2(lat.max())});
}

}  // namespace
}  // namespace cht::bench

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("read_latency", args);
  result.begin(
      "E4: read latency, ours vs baselines (delta = 25 ms, 95% reads)",
      "Claim (paper S5): local lease reads complete in 0 network hops and\n"
      "block only on conflicting writes; every baseline pays network hops\n"
      "and/or conflict-blind blocking.");
  result.columns(
      {"algorithm", "reads", "p50 (ms)", "p90 (ms)", "p99 (ms)", "max (ms)"});
  add_row(result, "ours (local lease reads)",
          run_core(result, "ours", core::ReadPolicy::kLocalLease));
  add_row(result, "ours, conflict-blind (PQL-style blocking)",
          run_core(result, "conflict-blind", core::ReadPolicy::kAnyPendingBlocks));
  add_row(result, "leader-forwarded reads (Spanner option a)",
          run_core(result, "leader-forward", core::ReadPolicy::kLeaderForward));
  add_row(result, "timestamp + safe-time wait (Spanner option b)",
          run_core(result, "safe-time", core::ReadPolicy::kSafeTime));
  add_row(result, "raft ReadIndex",
          run_raft(result, "raft-readindex", raft::ReadMode::kReadIndex));
  add_row(result, "raft leader-lease",
          run_raft(result, "raft-lease", raft::ReadMode::kLeaderLease));
  result.note(
      "Expected shape: ours p50 = 0 ms (local, non-blocking), p99\n"
      "<= 3*delta = 75 ms; conflict-blind inflates p50/p99; safe-time\n"
      "waits ~half a beacon interval per read even with no writes; leader\n"
      "forwarding >= 1 RTT (~2*delta median); Raft ReadIndex is the\n"
      "slowest (forward + majority round); Raft leader-lease helps\n"
      "only reads issued *at* the leader (1/5 of them).");
  result.end();
  return result.finish();
}
