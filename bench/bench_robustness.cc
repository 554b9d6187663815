// E9 — Robustness when model assumptions break (paper Section 1).
//
// Claims:
//   (a) majority crash: liveness lost, safety kept (no wrong results);
//   (b) clocks desynchronized: the RMW sub-execution remains linearizable;
//       reads may stall (fast clock) or return stale states (slow clock +
//       missed messages);
//   (c) synchrony restored: reads return the current state again.
//   (d) rolling power cycles (crash-recovery extension): acked writes
//       survive replica restarts, the cluster stays available while a
//       minority bounces, and recovery time is bounded (percentiles
//       reported from the restart -> caught-up interval);
//   (f) clock-health guard (robustness extension): with the guard on, every
//       stale read a clock-storm produces is confined to the exposure
//       window between skew injection and heal+drain — zero outside it —
//       and guard detection latency is bounded;
//   (g) degraded reads cost consensus-round latency where lease reads were
//       local, the price of freshness under a distrusted clock.
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/spec.h"
#include "chaos/sweep.h"
#include "checker/linearizability.h"
#include "common/bench_util.h"
#include "common/experiment.h"
#include "metrics/stats.h"
#include "object/register_object.h"

namespace cht::bench {
namespace {

harness::ClusterConfig base_config(std::uint64_t seed) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  config.epsilon = Duration::millis(1);
  return config;
}

}  // namespace
}  // namespace cht::bench

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("robustness", args);
  result.begin(
      "E9: robustness under broken assumptions",
      "Each scenario breaks one model assumption and reports what was lost\n"
      "(liveness, read freshness) and what survived (safety, RMW\n"
      "linearizability) — matching the paper's robustness discussion.");
  result.columns({"scenario", "ops completed", "full history lin.",
                  "RMW sub-history lin.", "notes"});

  // (a) Majority crash.
  {
    harness::Cluster cluster(base_config(91),
                             std::make_shared<object::RegisterObject>());
    cluster.await_steady_leader(Duration::seconds(5));
    cluster.submit(0, object::RegisterObject::write("pre"));
    cluster.await_quiesce(Duration::seconds(5));
    for (int i = 0; i < 3; ++i) cluster.sim().crash(ProcessId(i));
    cluster.submit(3, object::RegisterObject::write("post"));
    cluster.submit(4, object::RegisterObject::read());
    cluster.run_for(Duration::seconds(20));
    const auto full =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    const auto rmw = checker::check_rmw_subhistory_linearizable(
        cluster.model(), cluster.history().ops());
    result.row({"majority (3/5) crash",
                metrics::Table::num(static_cast<std::int64_t>(
                    cluster.completed())) +
                    "/" + metrics::Table::num(static_cast<std::int64_t>(
                              cluster.submitted())),
                full.linearizable ? "yes" : "NO",
                rmw.linearizable ? "yes" : "NO",
                "post-crash ops pend forever (liveness lost, safety kept)"});
    result.metric("majority_crash_safety_kept",
                  static_cast<std::int64_t>(full.linearizable ? 1 : 0));
    result.config("majority-crash", cluster.config(), cluster.options());
    result.observe("majority-crash", cluster);
  }

  // (b) slow clock + partition => stale reads, RMW still linearizable.
  // Guard pinned off: this row documents the *unguarded* failure mode the
  // paper accepts; the guard-on contrast is the clock-guard axis below.
  {
    harness::ClusterConfig config = base_config(92);
    config.clock_guard = false;
    harness::Cluster cluster(config,
                             std::make_shared<object::RegisterObject>());
    cluster.await_steady_leader(Duration::seconds(5));
    cluster.run_for(Duration::seconds(1));
    const int leader = cluster.steady_leader();
    const int victim = (leader + 1) % cluster.n();
    cluster.submit(leader, object::RegisterObject::write("old"));
    cluster.await_quiesce(Duration::seconds(5));
    cluster.run_for(cluster.replica_config().lease_renew_interval * 3);
    cluster.sim().set_clock_offset(ProcessId(victim), Duration::seconds(-3600));
    cluster.sim().network().set_process_isolated(ProcessId(victim), true,
                                                 cluster.n());
    for (int i = 0; i < 3; ++i) {
      cluster.submit(leader, object::RegisterObject::write("new" + std::to_string(i)));
      cluster.await_quiesce(Duration::seconds(60));
    }
    cluster.submit(victim, object::RegisterObject::read());
    cluster.await_quiesce(Duration::seconds(5));
    const std::string got = *cluster.history().ops().back().response;
    const auto full =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    const auto rmw = checker::check_rmw_subhistory_linearizable(
        cluster.model(), cluster.history().ops());
    result.row({"slow clock + partition",
                metrics::Table::num(static_cast<std::int64_t>(
                    cluster.completed())) +
                    "/" + metrics::Table::num(static_cast<std::int64_t>(
                              cluster.submitted())),
                full.linearizable ? "yes (unexpected)" : "NO (stale read)",
                rmw.linearizable ? "yes" : "NO",
                "victim read \"" + got + "\" after new0..new2 committed"});
    result.metric("slow_clock_rmw_linearizable",
                  static_cast<std::int64_t>(rmw.linearizable ? 1 : 0));
  }

  // (c) fast clock stalls reads; resync restores freshness. Guard pinned
  // off: with it on, the victim's reads degrade to consensus instead of
  // stalling (measured by the clock-guard axis below).
  {
    harness::ClusterConfig config = base_config(93);
    config.clock_guard = false;
    harness::Cluster cluster(config,
                             std::make_shared<object::RegisterObject>());
    cluster.await_steady_leader(Duration::seconds(5));
    cluster.run_for(Duration::seconds(1));
    const int leader = cluster.steady_leader();
    const int victim = (leader + 1) % cluster.n();
    cluster.submit(leader, object::RegisterObject::write("current"));
    cluster.await_quiesce(Duration::seconds(5));
    cluster.sim().set_clock_offset(ProcessId(victim), Duration::seconds(30));
    cluster.submit(victim, object::RegisterObject::read());
    cluster.run_for(Duration::seconds(5));
    const bool stalled = cluster.completed() + 1 == cluster.submitted();
    cluster.sim().set_clock_offset(ProcessId(victim), Duration::zero());
    cluster.await_quiesce(Duration::seconds(45));
    const std::string got = *cluster.history().ops().back().response;
    const auto full =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    result.row({"fast clock, then resync",
                metrics::Table::num(static_cast<std::int64_t>(
                    cluster.completed())) +
                    "/" + metrics::Table::num(static_cast<std::int64_t>(
                              cluster.submitted())),
                full.linearizable ? "yes" : "NO",
                "yes",
                std::string(stalled ? "read stalled while desynced; " : "") +
                    "after resync read \"" + got + "\" (current)"});
    result.metric("fast_clock_resync_linearizable",
                  static_cast<std::int64_t>(full.linearizable ? 1 : 0));
  }

  // (d) Rolling power cycles: bounce each follower in turn while the
  // leader keeps committing. Availability = every submitted op completes;
  // durability = the final read observes the last acked write; recovery
  // time = sim-time from restart until the rebooted replica's applied
  // prefix catches the leader's pre-crash prefix.
  {
    harness::Cluster cluster(base_config(94),
                             std::make_shared<object::RegisterObject>());
    cluster.await_steady_leader(Duration::seconds(5));
    metrics::LatencyRecorder recovery;
    const int cycles = result.scaled(10, 3);
    int bounced = 0;
    std::string last_value;
    for (int c = 0; c < cycles; ++c) {
      const int leader = cluster.steady_leader();
      int victim = (leader + 1 + c) % cluster.n();
      if (victim == leader) victim = (victim + 1) % cluster.n();
      last_value = "epoch" + std::to_string(c);
      cluster.submit(leader, object::RegisterObject::write(last_value));
      cluster.await_quiesce(Duration::seconds(10));
      const auto target = cluster.replica(leader).snapshot().applied_upto;
      cluster.sim().crash(ProcessId(victim));
      cluster.run_for(Duration::millis(200));  // downtime with the op acked
      const RealTime restarted_at = cluster.sim().now();
      cluster.restart(victim);
      ++bounced;
      const bool caught_up = cluster.sim().run_until(
          [&] {
            return cluster.replica(victim).snapshot().applied_upto >= target;
          },
          restarted_at + Duration::seconds(30));
      if (caught_up) recovery.record(cluster.sim().now() - restarted_at);
    }
    cluster.submit(cluster.steady_leader(), object::RegisterObject::read());
    cluster.await_quiesce(Duration::seconds(10));
    const std::string got = *cluster.history().ops().back().response;
    const auto full =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    const auto rmw = checker::check_rmw_subhistory_linearizable(
        cluster.model(), cluster.history().ops());
    const bool durable = got == last_value;
    result.row({"rolling power cycles",
                metrics::Table::num(static_cast<std::int64_t>(
                    cluster.completed())) +
                    "/" + metrics::Table::num(static_cast<std::int64_t>(
                              cluster.submitted())),
                full.linearizable ? "yes" : "NO",
                rmw.linearizable ? "yes" : "NO",
                std::to_string(bounced) + " bounces; recovery p50 " +
                    metrics::Table::num(recovery.p50().to_micros()) +
                    "us p99 " +
                    metrics::Table::num(recovery.p99().to_micros()) +
                    "us; final read \"" + got + "\""});
    result.metric("power_cycle_bounces", static_cast<std::int64_t>(bounced));
    result.metric("power_cycle_recoveries",
                  static_cast<std::int64_t>(recovery.count()));
    result.metric("power_cycle_all_ops_completed",
                  static_cast<std::int64_t>(
                      cluster.completed() == cluster.submitted() ? 1 : 0));
    result.metric("power_cycle_durable",
                  static_cast<std::int64_t>(durable ? 1 : 0));
    result.metric("power_cycle_linearizable",
                  static_cast<std::int64_t>(full.linearizable ? 1 : 0));
    if (!recovery.empty()) {
      result.latency("power-cycle recovery", recovery);
    }
    result.config("power-cycle", cluster.config(), cluster.options());
    result.observe("power-cycle", cluster);
  }

  // (e) Power cycles under real fsync cost: the same bounce loop as (d),
  // swept over the sync-latency axis. Durability and linearizability must
  // hold at every point; fsync count and device stall quantify what the
  // group-commit write path pays for them.
  for (const auto& [axis_label, sync_latency] :
       std::vector<std::pair<std::string, Duration>>{
           {"0", Duration::zero()},
           {"0.5*delta", Duration::millis(5)},
           {"2*delta", Duration::millis(20)}}) {
    harness::ClusterConfig config = base_config(95);
    config.storage.sync_latency = sync_latency;
    harness::Cluster cluster(config,
                             std::make_shared<object::RegisterObject>());
    cluster.await_steady_leader(Duration::seconds(5));
    const int cycles = result.scaled(5, 2);
    std::string last_value;
    for (int c = 0; c < cycles; ++c) {
      const int leader = cluster.steady_leader();
      int victim = (leader + 1 + c) % cluster.n();
      if (victim == leader) victim = (victim + 1) % cluster.n();
      last_value = "sync-epoch" + std::to_string(c);
      cluster.submit(leader, object::RegisterObject::write(last_value));
      cluster.await_quiesce(Duration::seconds(10));
      cluster.sim().crash(ProcessId(victim));
      cluster.run_for(Duration::millis(200));
      cluster.restart(victim);
      cluster.run_for(Duration::seconds(1));
    }
    cluster.submit(cluster.steady_leader(), object::RegisterObject::read());
    cluster.await_quiesce(Duration::seconds(10));
    const std::string got = *cluster.history().ops().back().response;
    const auto full =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    std::int64_t fsyncs = 0, stall = 0;
    for (int i = 0; i < cluster.n(); ++i) {
      fsyncs += cluster.sim().storage(ProcessId(i)).fsyncs();
      stall += cluster.sim().storage(ProcessId(i)).sync_stall_us();
    }
    const bool durable = got == last_value;
    result.row({"power cycles @ sync=" + axis_label,
                metrics::Table::num(static_cast<std::int64_t>(
                    cluster.completed())) +
                    "/" + metrics::Table::num(static_cast<std::int64_t>(
                              cluster.submitted())),
                full.linearizable ? "yes" : "NO",
                "yes",
                std::to_string(fsyncs) + " fsyncs, stall " +
                    metrics::Table::num(stall / 1000) + "ms; final read \"" +
                    got + "\""});
    const std::string suffix = "_sync" + std::to_string(sync_latency.to_micros());
    result.metric("sync_axis_durable" + suffix,
                  static_cast<std::int64_t>(durable ? 1 : 0));
    result.metric("sync_axis_linearizable" + suffix,
                  static_cast<std::int64_t>(full.linearizable ? 1 : 0));
    result.metric("sync_axis_fsyncs" + suffix, fsyncs);
    result.metric("sync_axis_stall_us" + suffix, stall);
    result.config("sync-axis-" + axis_label, cluster.config(),
                  cluster.options());
  }

  // (f) Clock-health guard axis: the same clock-storm chaos cells swept
  // with the guard off (legacy accounting: stale reads blanket-tolerated,
  // only the RMW sub-history is checked) and on (full linearizability under
  // exposure-window accounting: a stale read is excused only inside the
  // bounded window between skew injection and heal+drain; any other stale
  // read fails the seed). Detection latency is derived offline by matching
  // each replica's suspect transitions to the latest prior skew injection.
  for (const bool guard_on : {false, true}) {
    chaos::RunSpec base;
    base.protocol = "chtread";
    base.profile = "clock-storm";
    base.object = "kv";
    base.ops = result.scaled(40, 20);
    base.clock_guard = guard_on;
    const int seeds = result.scaled(30, 6);
    const auto sweep = chaos::sweep_seeds(base, 1, seeds);
    std::size_t submitted = 0, completed = 0, excused = 0;
    metrics::LatencyRecorder detection;
    for (const auto& run : sweep.results) {
      submitted += run.submitted;
      completed += run.completed;
      excused += run.reads_excused;
      for (const auto& transitions : run.guard_transitions) {
        for (const auto& t : transitions) {
          if (!t.suspect) continue;
          RealTime latest = RealTime::min();
          bool found = false;
          for (const auto& ev : run.skew_events) {
            if (ev.at <= t.at && ev.at >= latest) {
              latest = ev.at;
              found = true;
            }
          }
          if (found) detection.record(t.at - latest);
        }
      }
    }
    const std::string label =
        std::string("clock-storm sweep, guard ") + (guard_on ? "on" : "off");
    std::string notes;
    if (guard_on) {
      notes = std::to_string(excused) + " stale reads, all inside exposure "
              "windows; detection p50 " +
              metrics::Table::num(detection.p50().to_micros()) + "us p99 " +
              metrics::Table::num(detection.p99().to_micros()) + "us";
    } else {
      notes = "stale reads blanket-tolerated (pre-guard accounting)";
    }
    result.row({label,
                metrics::Table::num(static_cast<std::int64_t>(completed)) +
                    "/" +
                    metrics::Table::num(static_cast<std::int64_t>(submitted)),
                guard_on ? (sweep.failures() == 0 ? "yes (exposure-window)"
                                                  : "NO")
                         : "n/a (legacy)",
                sweep.failures() == 0 ? "yes" : "NO",
                std::to_string(seeds) + " seeds, " +
                    std::to_string(sweep.failures()) + " failures; " + notes});
    const std::string prefix = guard_on ? "guard_on" : "guard_off";
    result.metric(prefix + "_failures",
                  static_cast<std::int64_t>(sweep.failures()));
    if (guard_on) {
      result.metric("guard_on_reads_excused",
                    static_cast<std::int64_t>(excused));
      result.metric("guard_on_suspect_trips",
                    static_cast<std::int64_t>(detection.count()));
      if (!detection.empty()) {
        result.latency("guard detection", detection);
      }
    }
  }

  // (g) Degraded-read cost: with the guard on, a clock-suspect replica
  // answers reads through consensus — correct but no longer local. Compare
  // the same replica's read latency while healthy (lease-local) and while
  // suspect (degraded RMW path).
  {
    harness::Cluster cluster(base_config(96),
                             std::make_shared<object::RegisterObject>());
    cluster.await_steady_leader(Duration::seconds(5));
    cluster.run_for(Duration::seconds(1));
    const int leader = cluster.steady_leader();
    const int victim = (leader + 1) % cluster.n();
    cluster.submit(leader, object::RegisterObject::write("v"));
    cluster.await_quiesce(Duration::seconds(5));
    const int reads = result.scaled(50, 10);
    metrics::LatencyRecorder lease_reads, degraded_reads;
    for (int i = 0; i < reads; ++i) {
      cluster.submit(victim, object::RegisterObject::read());
      cluster.await_quiesce(Duration::seconds(5));
      lease_reads.record(cluster.history().ops().back().latency());
    }
    // Skew the victim beyond epsilon; incoming traffic trips its guard.
    cluster.sim().set_clock_offset(ProcessId(victim), Duration::millis(30));
    cluster.run_for(Duration::millis(100));
    for (int i = 0; i < reads; ++i) {
      cluster.submit(victim, object::RegisterObject::read());
      cluster.await_quiesce(Duration::seconds(5));
      degraded_reads.record(cluster.history().ops().back().latency());
    }
    const auto full =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    result.row({"degraded-read cost (guard on)",
                metrics::Table::num(static_cast<std::int64_t>(
                    cluster.completed())) +
                    "/" + metrics::Table::num(static_cast<std::int64_t>(
                              cluster.submitted())),
                full.linearizable ? "yes" : "NO",
                "yes",
                "lease p50 " +
                    metrics::Table::num(lease_reads.p50().to_micros()) +
                    "us -> degraded p50 " +
                    metrics::Table::num(degraded_reads.p50().to_micros()) +
                    "us"});
    result.metric("degraded_read_linearizable",
                  static_cast<std::int64_t>(full.linearizable ? 1 : 0));
    result.metric("lease_read_p50_us", lease_reads.p50().to_micros());
    result.metric("degraded_read_p50_us", degraded_reads.p50().to_micros());
    result.latency("lease reads (healthy)", lease_reads);
    result.latency("degraded reads (suspect)", degraded_reads);
    result.observe("degraded-reads", cluster);
  }

  result.note(
      "Expected shape: RMW sub-history linearizable in every row;\n"
      "full-history violations only in the stale-read row; majority\n"
      "crash completes only pre-crash ops; the power-cycle row completes\n"
      "every op, stays linearizable, and reads the last acked write after\n"
      "the final bounce (durability across restarts); the sync-axis rows\n"
      "stay durable and linearizable at every fsync cost, with fsync count\n"
      "flat across the axis (group commit) while stall grows with the cost;\n"
      "the guard-on sweep has zero failures (every stale read confined to\n"
      "its exposure window) and the degraded-read row trades lease-local\n"
      "latency for consensus-round latency while staying linearizable.");
  result.end();
  return result.finish();
}
