// E6 — RMW commit latency: leaseholder-set memory and commit-wait (paper
// S3 "leaseholder mechanism" + S5 Megastore/Spanner contrasts).
//
// Claims:
//   (a) ours: a crashed/disconnected leaseholder delays RMW commits at most
//       once (the lease-expiry wait), after which it is dropped from the
//       leaseholder set and writes return to ~2*delta;
//   (b) Megastore-style all-ack commits have no such memory: *every* write
//       pays the invalidation wait while a process is down;
//   (c) Spanner-style commit-wait adds the clock uncertainty epsilon to
//       every write; ours is independent of epsilon after GST.
#include <iostream>
#include <memory>

#include "common/bench_util.h"
#include "common/experiment.h"
#include "object/register_object.h"

namespace cht::bench {
namespace {

constexpr Duration kDelta = Duration::millis(10);

harness::ClusterConfig base_config(std::uint64_t seed = 61) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = kDelta;
  return config;
}

// Sequence of per-write commit latencies around a leaseholder crash.
std::vector<Duration> crash_timeline(ExperimentResult& result,
                                     core::CommitGate gate,
                                     const std::string& label) {
  core::ConfigOverrides overrides;
  overrides.commit_gate = gate;
  harness::Cluster cluster(base_config(),
                           std::make_shared<object::RegisterObject>(),
                           overrides);
  cluster.await_steady_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  const int submitter = (leader + 2) % cluster.n();

  std::vector<Duration> latencies;
  auto timed_write = [&](int i) {
    const RealTime t0 = cluster.sim().now();
    cluster.submit(submitter, object::RegisterObject::write(std::to_string(i)));
    cluster.await_quiesce(Duration::seconds(60));
    latencies.push_back(cluster.sim().now() - t0);
  };
  for (int i = 0; i < 3; ++i) timed_write(i);  // healthy
  cluster.sim().crash(ProcessId((leader + 1) % cluster.n()));
  for (int i = 3; i < 10; ++i) timed_write(i);  // after the crash
  result.config(label, cluster.config(), cluster.options());
  result.observe(label, cluster);
  metrics::LatencyRecorder lat;
  for (const Duration d : latencies) lat.record(d);
  result.latency(label, lat);
  return latencies;
}

// One cell of the E6c sync-latency axis: steady-state writes under a given
// fsync cost and sync discipline, with fsync count and device stall captured
// over the timed window only (startup elections/leases are excluded).
struct SyncAxisCell {
  Duration p50;
  double fsyncs_per_batch = 0;
  std::int64_t sync_stall_us = 0;
};

SyncAxisCell sync_axis_run(ExperimentResult& result, Duration sync_latency,
                           bool group_commit, const std::string& label) {
  harness::ClusterConfig config = base_config(83);
  config.storage.sync_latency = sync_latency;
  config.storage.group_commit = group_commit;
  harness::Cluster cluster(config,
                           std::make_shared<object::RegisterObject>(),
                           core::ConfigOverrides{});
  cluster.await_steady_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));

  auto totals = [&](std::int64_t& fsyncs, std::int64_t& stall) {
    fsyncs = 0;
    stall = 0;
    for (int i = 0; i < cluster.n(); ++i) {
      fsyncs += cluster.sim().storage(ProcessId(i)).fsyncs();
      stall += cluster.sim().storage(ProcessId(i)).sync_stall_us();
    }
  };
  std::int64_t fsyncs_before = 0, stall_before = 0;
  totals(fsyncs_before, stall_before);

  metrics::LatencyRecorder lat;
  const int writes = result.scaled(25, 8);
  for (int i = 0; i < writes; ++i) {
    const RealTime t0 = cluster.sim().now();
    cluster.submit(1, object::RegisterObject::write(std::to_string(i)));
    cluster.await_quiesce(Duration::seconds(60));
    lat.record(cluster.sim().now() - t0);
  }

  std::int64_t fsyncs_after = 0, stall_after = 0;
  totals(fsyncs_after, stall_after);
  result.config(label, cluster.config(), cluster.options());
  result.latency(label, lat);

  SyncAxisCell cell;
  cell.p50 = lat.p50();
  cell.fsyncs_per_batch =
      static_cast<double>(fsyncs_after - fsyncs_before) / writes;
  cell.sync_stall_us = stall_after - stall_before;
  return cell;
}

Duration steady_write_latency(ExperimentResult& result, Duration commit_wait,
                              std::uint64_t seed) {
  core::ConfigOverrides overrides;
  overrides.commit_wait = commit_wait;
  harness::Cluster cluster(base_config(seed),
                           std::make_shared<object::RegisterObject>(),
                           overrides);
  cluster.await_steady_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  metrics::LatencyRecorder lat;
  for (int i = 0; i < result.scaled(20, 6); ++i) {
    const RealTime t0 = cluster.sim().now();
    cluster.submit(1, object::RegisterObject::write(std::to_string(i)));
    cluster.await_quiesce(Duration::seconds(30));
    lat.record(cluster.sim().now() - t0);
  }
  return lat.p50();
}

}  // namespace
}  // namespace cht::bench

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("write_latency", args);

  result.begin(
      "E6a: write latency timeline around a leaseholder crash",
      "Claim (paper S3/S5): ours pays the lease-expiry wait exactly once\n"
      "(write #4, the first after the crash), then drops the dead process\n"
      "from the leaseholder set; Megastore-style all-ack commits pay the\n"
      "wait on every write. (LeasePeriod = 12*delta = 120 ms.)");
  const auto ours = crash_timeline(result, core::CommitGate::kLeaseholders,
                                   "ours-leaseholders");
  const auto allack = crash_timeline(result, core::CommitGate::kAllProcesses,
                                     "all-ack");
  result.columns({"write#", "ours (ms)", "all-ack/Megastore (ms)", "note"});
  for (std::size_t i = 0; i < ours.size(); ++i) {
    std::string note;
    if (i < 3) note = "healthy";
    else if (i == 3) note = "first write after crash";
    else note = "subsequent writes";
    result.row({metrics::Table::num(static_cast<std::int64_t>(i + 1)),
                ms2(ours[i]), ms2(allack[i]), note});
  }
  result.end();

  result.begin(
      "E6b: write latency vs clock uncertainty epsilon",
      "Claim (paper S5, Spanner): commit-wait writes pay epsilon each;\n"
      "ours is independent of epsilon after GST.");
  result.columns({"epsilon (ms)", "ours p50 (ms)", "commit-wait p50 (ms)"});
  const std::vector<std::int64_t> sweep =
      result.smoke() ? std::vector<std::int64_t>{0, 50}
                     : std::vector<std::int64_t>{0, 5, 10, 25, 50};
  for (const std::int64_t e_ms : sweep) {
    const Duration epsilon = Duration::millis(e_ms);
    const Duration ours_p50 =
        steady_write_latency(result, Duration::zero(), 71);
    const Duration wait_p50 = steady_write_latency(result, epsilon, 71);
    result.row({metrics::Table::num(e_ms), ms2(ours_p50), ms2(wait_p50)});
    result.metric("ours_p50_us_eps" + std::to_string(e_ms),
                  ours_p50.to_micros());
    result.metric("commit_wait_p50_us_eps" + std::to_string(e_ms),
                  wait_p50.to_micros());
  }
  result.note(
      "Expected shape: E6a — ours spikes only at write #4 (by\n"
      "~LeasePeriod), all-ack spikes on every write 4..10; E6b —\n"
      "ours flat, commit-wait grows linearly with epsilon.");
  result.end();

  result.begin(
      "E6c: write latency and fsync amplification vs sync cost",
      "Claim: with a real (nonzero) fsync cost, group commit — one covering\n"
      "sync per ack burst, acks released only after it completes — commits\n"
      "with fewer fsyncs per batch AND lower median latency than the naive\n"
      "discipline that syncs every record individually (the extra syncs\n"
      "queue at the serial device ahead of the ack-critical one). At zero\n"
      "sync cost the two disciplines are identical by construction.");
  result.columns({"sync cost", "discipline", "p50 (ms)", "fsyncs/batch",
                  "sync stall (ms)"});
  const std::vector<std::pair<std::string, Duration>> sync_axis = {
      {"0", Duration::zero()},
      {"0.5*delta", Duration::micros(kDelta.to_micros() / 2)},
      {"2*delta", 2 * kDelta}};
  for (const auto& [axis_label, sync_latency] : sync_axis) {
    for (const bool group : {true, false}) {
      const std::string discipline = group ? "group-commit" : "naive";
      const std::string label = "sync-" + axis_label + "-" + discipline;
      const SyncAxisCell cell =
          sync_axis_run(result, sync_latency, group, label);
      result.row({axis_label, discipline, ms2(cell.p50),
                  metrics::Table::num(cell.fsyncs_per_batch, 2),
                  ms2(Duration::micros(cell.sync_stall_us))});
      const std::string suffix =
          (group ? "_group" : "_naive") + std::string("_sync") +
          std::to_string(sync_latency.to_micros());
      result.metric("p50_us" + suffix, cell.p50.to_micros());
      result.metric("fsyncs_per_batch" + suffix, cell.fsyncs_per_batch);
      result.metric("sync_stall_us" + suffix, cell.sync_stall_us);
    }
  }
  result.note(
      "Expected shape: the two zero-cost rows are identical; at every\n"
      "nonzero cost group commit issues strictly fewer fsyncs per batch;\n"
      "at 2*delta — where the serial device is the bottleneck — it also\n"
      "shows clearly lower p50 (at 0.5*delta the device is rarely backed\n"
      "up, so the latencies are close).");
  result.end();
  return result.finish();
}
