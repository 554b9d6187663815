// E1 — Read locality (paper Sections 1 & 3).
//
// Claim: "reads are local: the number of messages sent during the execution
// does not depend on the number of reads performed". We fix a background RMW
// rate, sweep the read count over three orders of magnitude, and report the
// total messages on the wire and the marginal messages per read. For
// contrast, the same sweep runs with ReadPolicy::kLeaderForward (Spanner
// option (a)) and on Raft with ReadIndex reads, whose traffic grows linearly
// with reads.
#include <iostream>
#include <memory>

#include "common/bench_util.h"
#include "common/experiment.h"
#include "core/replica.h"
#include "object/kv_object.h"

namespace cht::bench {
namespace {

struct Result {
  std::int64_t messages;
  std::int64_t completed_reads;
};

harness::ClusterConfig base_config() {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = 99;
  config.delta = Duration::millis(10);
  return config;
}

// Fixed experiment body: 50 writes over 5 simulated seconds, plus `reads`
// reads spread evenly. Returns messages counted over the measured window.
template <class ClusterT>
Result run_window(ClusterT& cluster, int reads) {
  const auto before = cluster.sim().network().stats().sent;
  const int steps = 50;
  const int reads_per_step = reads / steps;
  for (int step = 0; step < steps; ++step) {
    cluster.submit(step % cluster.n(),
                   object::KVObject::put("k" + std::to_string(step % 4), "v"));
    for (int r = 0; r < reads_per_step; ++r) {
      cluster.submit((step + r) % cluster.n(),
                     object::KVObject::get("k" + std::to_string(r % 4)));
    }
    cluster.run_for(Duration::millis(100));
  }
  cluster.await_quiesce(Duration::seconds(60));
  return Result{static_cast<std::int64_t>(
                    cluster.sim().network().stats().sent - before),
                reads};
}

Result run_core(ExperimentResult& result, int reads, core::ReadPolicy policy,
                const std::string& label) {
  core::ConfigOverrides overrides;
  overrides.read_policy = policy;
  harness::Cluster cluster(base_config(), std::make_shared<object::KVObject>(),
                           overrides);
  cluster.await_steady_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  const auto window = run_window(cluster, reads);
  if (!label.empty()) {
    result.config(label, cluster.config(), cluster.options());
    result.observe(label, cluster);
  }
  return window;
}

Result run_raft(ExperimentResult& result, int reads, const std::string& label) {
  harness::RaftCluster cluster(base_config(),
                               std::make_shared<object::KVObject>());
  cluster.await_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  const auto window = run_window(cluster, reads);
  if (!label.empty()) {
    result.config(label, cluster.config());
    result.observe(label, cluster);
  }
  return window;
}

}  // namespace
}  // namespace cht::bench

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("locality", args);
  result.begin(
      "E1: read locality — messages vs number of reads",
      "Claim (paper S1/S3): with the paper's algorithm the number of\n"
      "messages is independent of the number of reads (slope ~= 0 msg/read);\n"
      "leader-forwarded reads and Raft ReadIndex reads pay messages per read.");
  result.columns({"reads", "ours: msgs", "ours: msg/read", "fwd: msgs",
                  "fwd: msg/read", "raft: msgs", "raft: msg/read"});

  const std::vector<int> sweep =
      result.smoke() ? std::vector<int>{0, 100} : std::vector<int>{0, 100, 1000, 10000};
  const int largest = sweep.back();
  std::int64_t ours_base = 0, fwd_base = 0, raft_base = 0;
  for (const int reads : sweep) {
    // Capture configs/observability only at the largest sweep point, where
    // the traffic contrast is the sharpest.
    const bool capture = reads == largest;
    const auto ours = run_core(result, reads, core::ReadPolicy::kLocalLease,
                               capture ? "ours" : "");
    const auto fwd = run_core(result, reads, core::ReadPolicy::kLeaderForward,
                              capture ? "leader-forward" : "");
    const auto raft = run_raft(result, reads, capture ? "raft-readindex" : "");
    if (reads == 0) {
      ours_base = ours.messages;
      fwd_base = fwd.messages;
      raft_base = raft.messages;
    }
    auto per_read = [&](std::int64_t messages, std::int64_t baseline) {
      if (reads == 0) return std::string("-");
      return metrics::Table::num(
          static_cast<double>(messages - baseline) / reads, 3);
    };
    result.row({metrics::Table::num(static_cast<std::int64_t>(reads)),
                metrics::Table::num(ours.messages),
                per_read(ours.messages, ours_base),
                metrics::Table::num(fwd.messages),
                per_read(fwd.messages, fwd_base),
                metrics::Table::num(raft.messages),
                per_read(raft.messages, raft_base)});
    if (reads == largest && reads > 0) {
      result.metric("ours_msg_per_read",
                    static_cast<double>(ours.messages - ours_base) / reads);
      result.metric("fwd_msg_per_read",
                    static_cast<double>(fwd.messages - fwd_base) / reads);
      result.metric("raft_msg_per_read",
                    static_cast<double>(raft.messages - raft_base) / reads);
    }
  }
  result.note(
      "Expected shape: 'ours: msg/read' ~ 0 at every scale;\n"
      "'fwd' and 'raft' grow by >= 2 messages per read.");
  result.end();
  return result.finish();
}
