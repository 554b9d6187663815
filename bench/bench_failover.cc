// E7 — Failover behaviour (paper S3 leader initialization, S5 Megastore
// livelock / VR static-order contrasts).
//
// Claims:
//   - a new leader deterministically resolves its predecessor's half-done
//     batch (commit-or-supersede) during initialization;
//   - failover time is a small multiple of the failure-detection timeout,
//     regardless of at which protocol phase the old leader crashed;
//   - read availability returns as soon as the new leader issues leases.
#include <iostream>
#include <memory>

#include "common/bench_util.h"
#include "common/experiment.h"
#include "harness/cluster.h"
#include "object/kv_object.h"

namespace cht::bench {
namespace {

constexpr Duration kDelta = Duration::millis(10);

struct FailoverResult {
  Duration new_leader_elected;   // crash -> a different steady leader
  Duration write_completed;      // crash -> in-flight write committed
  Duration reads_available;      // crash -> follower read completes
  bool consistent = false;
};

FailoverResult run(ExperimentResult& result, Duration crash_offset,
                   std::uint64_t seed, bool observe,
                   Duration sync_latency = Duration::zero(),
                   bool group_commit = true) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = kDelta;
  config.storage.sync_latency = sync_latency;
  config.storage.group_commit = group_commit;
  harness::Cluster cluster(config, std::make_shared<object::KVObject>());
  cluster.await_steady_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  const int old_leader = cluster.steady_leader();
  const int submitter = (old_leader + 1) % cluster.n();

  // A write is in flight when the leader dies.
  cluster.submit(submitter, object::KVObject::put("k", "in-flight"));
  cluster.run_for(crash_offset);
  cluster.sim().crash(ProcessId(old_leader));
  const RealTime crash_at = cluster.sim().now();

  FailoverResult out;
  int new_leader = -1;
  cluster.sim().run_until(
      [&] {
        new_leader = cluster.steady_leader();
        return new_leader >= 0 && new_leader != old_leader;
      },
      crash_at + Duration::seconds(60));
  out.new_leader_elected = cluster.sim().now() - crash_at;
  cluster.await_quiesce(Duration::seconds(60));
  out.write_completed = cluster.sim().now() - crash_at;
  // First follower read after failover.
  const int reader = (old_leader + 2) % cluster.n();
  cluster.submit(reader, object::KVObject::get("k"));
  cluster.await_quiesce(Duration::seconds(60));
  out.reads_available = cluster.sim().now() - crash_at;
  out.consistent = *cluster.history().ops().back().response == "in-flight";
  if (observe) {
    result.config("failover", cluster.config(), cluster.options());
    result.observe("failover", cluster);
  }
  return out;
}

// --- Static vs dynamic leader order (paper S5, VR/Raft contrast) ----------
// Crash the current leader while its next `isolated` static successors are
// partitioned away. VR must cycle through that many ineffective views; our
// algorithm's Omega-based choice goes straight to a connected process.

Duration ours_recovery(int isolated, std::uint64_t seed) {
  harness::ClusterConfig config;
  config.n = 9;  // majority (5) stays connected with <= 3 isolated + 1 crash
  config.seed = seed;
  config.delta = kDelta;
  harness::Cluster cluster(config, std::make_shared<object::KVObject>());
  cluster.await_steady_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  const int old_leader = cluster.steady_leader();
  for (int k = 1; k <= isolated; ++k) {
    cluster.sim().network().set_process_isolated(
        ProcessId((old_leader + k) % cluster.n()), true, cluster.n());
  }
  cluster.sim().crash(ProcessId(old_leader));
  const RealTime crash_at = cluster.sim().now();
  int new_leader = -1;
  cluster.sim().run_until(
      [&] {
        new_leader = cluster.steady_leader();
        return new_leader >= 0 && new_leader != old_leader;
      },
      crash_at + Duration::seconds(120));
  return cluster.sim().now() - crash_at;
}

Duration vr_recovery(int isolated, std::uint64_t seed) {
  harness::ClusterConfig config;
  config.n = 9;
  config.seed = seed;
  config.delta = kDelta;
  harness::VrCluster cluster(config, std::make_shared<object::KVObject>());
  cluster.await_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  const int old_primary = cluster.leader();
  for (int k = 1; k <= isolated; ++k) {
    cluster.sim().network().set_process_isolated(
        ProcessId((old_primary + k) % cluster.n()), true, cluster.n());
  }
  cluster.sim().crash(ProcessId(old_primary));
  const RealTime crash_at = cluster.sim().now();
  cluster.sim().run_until(
      [&] {
        const int p = cluster.leader();
        if (p < 0 || p == old_primary) return false;
        // Require an *effective* primary: one that can actually commit.
        for (int k = 1; k <= isolated; ++k) {
          if (p == (old_primary + k) % cluster.n()) return false;
        }
        return true;
      },
      crash_at + Duration::seconds(120));
  return cluster.sim().now() - crash_at;
}

}  // namespace
}  // namespace cht::bench

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("failover", args);

  result.begin(
      "E7: leader failover with a half-done batch",
      "Claim (paper S3): the new leader's initialization (estimate\n"
      "collection -> batch recovery -> re-commit) deterministically resolves\n"
      "the predecessor's in-flight batch; progress does not depend on where\n"
      "in the protocol the crash landed. delta = 10 ms; Omega timeout = 41 ms;\n"
      "crash offset = time between submitting the write and killing the\n"
      "leader (sweeps the protocol phase being interrupted).");
  result.columns({"crash offset (ms)", "new leader (ms)",
                  "write committed (ms)", "reads available (ms)",
                  "in-flight write preserved"});
  const std::vector<std::int64_t> offsets =
      result.smoke() ? std::vector<std::int64_t>{0, 9, 25}
                     : std::vector<std::int64_t>{0, 3, 6, 9, 12, 15, 25};
  bool all_consistent = true;
  for (const std::int64_t offset_ms : offsets) {
    const auto r =
        run(result, Duration::millis(offset_ms),
            static_cast<std::uint64_t>(700 + offset_ms),
            offset_ms == offsets.back());
    all_consistent = all_consistent && r.consistent;
    result.row({metrics::Table::num(offset_ms), ms2(r.new_leader_elected),
                ms2(r.write_completed), ms2(r.reads_available),
                r.consistent ? "yes" : "NO"});
    result.metric("failover_reads_available_us_offset" +
                      std::to_string(offset_ms),
                  r.reads_available.to_micros());
  }
  result.metric("in_flight_write_always_preserved",
                static_cast<std::int64_t>(all_consistent ? 1 : 0));
  result.note(
      "Expected shape: all columns bounded and similar across\n"
      "crash offsets (deterministic failover, ~Omega timeout plus a\n"
      "few delta); the in-flight write always survives (committed\n"
      "by recovery or by the submitter's retry, never lost or\n"
      "duplicated).");
  result.end();

  result.begin(
      "E7b: static (VR) vs dynamic (Omega) leader succession",
      "Paper S5: \"with a static leader election scheme, if the next several\n"
      "processes to become leaders are partitioned away from the majority,\n"
      "the system will cycle through a succession of ineffective views\".\n"
      "n = 9; the leader crashes while its next k static successors are\n"
      "partitioned. Ours picks a connected leader directly.");
  result.columns({"partitioned successors", "ours: recovery (ms)",
                  "VR: recovery (ms)", "VR/ours"});
  const std::vector<int> isolations =
      result.smoke() ? std::vector<int>{0, 3} : std::vector<int>{0, 1, 2, 3};
  for (const int isolated : isolations) {
    const Duration ours_t =
        ours_recovery(isolated, static_cast<std::uint64_t>(900 + isolated));
    const Duration vr_t =
        vr_recovery(isolated, static_cast<std::uint64_t>(900 + isolated));
    result.row({metrics::Table::num(static_cast<std::int64_t>(isolated)),
                ms2(ours_t), ms2(vr_t),
                metrics::Table::num(
                    static_cast<double>(vr_t.to_micros()) / ours_t.to_micros(),
                    2)});
    result.metric("ours_recovery_us_k" + std::to_string(isolated),
                  ours_t.to_micros());
    result.metric("vr_recovery_us_k" + std::to_string(isolated),
                  vr_t.to_micros());
  }
  result.note(
      "Expected shape: ours is flat in k (Omega only proposes\n"
      "connected processes); VR grows by roughly one view-change\n"
      "timeout per partitioned successor.");
  result.end();

  result.begin(
      "E7c: failover under real fsync cost",
      "Companion to E6c's steady-state axis: the same sync-cost x discipline\n"
      "grid, but measuring the failure path. The new leader's initialization\n"
      "must persist its own records (estimates, the recovered batch) before\n"
      "externalizing, so a nonzero fsync cost lands on the failover critical\n"
      "path; group commit folds those records into covering syncs while the\n"
      "naive discipline pays the device serially. Crash offset fixed at 9 ms\n"
      "(mid-protocol, the most recovery work).");
  result.columns({"sync cost", "discipline", "new leader (ms)",
                  "write committed (ms)", "reads available (ms)",
                  "in-flight write preserved"});
  const std::vector<std::pair<std::string, Duration>> sync_axis =
      result.smoke()
          ? std::vector<std::pair<std::string, Duration>>{{"2*delta",
                                                           2 * kDelta}}
          : std::vector<std::pair<std::string, Duration>>{
                {"0", Duration::zero()},
                {"0.5*delta", Duration::micros(kDelta.to_micros() / 2)},
                {"2*delta", 2 * kDelta}};
  bool sync_axis_consistent = true;
  for (const auto& [axis_label, sync_latency] : sync_axis) {
    for (const bool group : {true, false}) {
      const std::string discipline = group ? "group-commit" : "naive";
      const auto r = run(result, Duration::millis(9),
                         static_cast<std::uint64_t>(
                             1100 + sync_latency.to_micros() / 1000 +
                             (group ? 0 : 1)),
                         /*observe=*/false, sync_latency, group);
      sync_axis_consistent = sync_axis_consistent && r.consistent;
      result.row({axis_label, discipline, ms2(r.new_leader_elected),
                  ms2(r.write_completed), ms2(r.reads_available),
                  r.consistent ? "yes" : "NO"});
      const std::string suffix =
          (group ? "_group" : "_naive") + std::string("_sync") +
          std::to_string(sync_latency.to_micros());
      result.metric("failover_write_committed_us" + suffix,
                    r.write_completed.to_micros());
      result.metric("failover_reads_available_us" + suffix,
                    r.reads_available.to_micros());
    }
  }
  result.metric("sync_axis_write_always_preserved",
                static_cast<std::int64_t>(sync_axis_consistent ? 1 : 0));
  result.note(
      "Expected shape: the zero-cost rows match E7's 9 ms-offset row; at\n"
      "nonzero cost failover stretches by a few fsyncs' worth, with\n"
      "group commit strictly no slower than naive at 2*delta. The\n"
      "in-flight write survives on every cell.");
  result.end();
  return result.finish();
}
