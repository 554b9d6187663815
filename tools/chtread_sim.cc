// chtread_sim — command-line scenario runner.
//
// Runs a configurable simulated cluster and prints a summary: latencies,
// message traffic, blocking statistics, and a linearizability verdict.
// With --metrics-out=PATH it also writes the versioned bench-artifact JSON
// (schema cht.bench.v1: merged per-replica metric registries, protocol-phase
// span histograms, message counts by type, latency percentiles).
//
// Usage:
//   chtread_sim [--n=5] [--delta-ms=10] [--epsilon-ms=1] [--seed=1]
//               [--protocol=core|raft|vr]
//               [--reads=core-local|core-forward|core-anypending|
//                raft-readindex|raft-lease]
//               [--workload=read-heavy|write-heavy|mixed]
//               [--ops=500] [--gst-ms=0] [--loss=0.05]
//               [--crash-leader-at-ms=N] [--check=on|off] [--trace=N]
//               [--metrics-out=PATH.json]
//
// --reads names a read mode of the chosen protocol (core-local and
// raft-readindex by default; VR has none to choose). An unknown flag, or a
// named value the flag does not know, exits 2 naming the known values.
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "checker/linearizability.h"
#include "common/experiment.h"
#include "common/rng.h"
#include "flags.h"
#include "harness/cluster.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "object/kv_object.h"

namespace {

using namespace cht;  // NOLINT: tool brevity

struct Options {
  int n = 5;
  std::int64_t delta_ms = 10;
  std::int64_t epsilon_ms = 1;
  std::uint64_t seed = 1;
  std::string protocol = "core";
  std::string reads;  // empty = the protocol's first read mode
  std::string workload = "read-heavy";
  int ops = 500;
  std::int64_t gst_ms = 0;
  double loss = 0.05;
  std::int64_t crash_leader_at_ms = -1;
  bool check = true;
  int trace = 0;  // dump last N protocol trace events (0 = off)
  std::string metrics_out;  // artifact path; empty = no artifact
};

// The read modes --reads may name for `protocol`; the first is the default.
std::vector<std::string> read_modes(const std::string& protocol) {
  if (protocol == "core") {
    return {"core-local", "core-forward", "core-anypending"};
  }
  if (protocol == "raft") return {"raft-readindex", "raft-lease"};
  return {};
}

Options parse(int argc, char** argv) {
  using cli::number;
  using cli::parse_flag;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (parse_flag(arg, "n", value)) {
      options.n = number("n", value, 1);
    } else if (parse_flag(arg, "delta-ms", value)) {
      options.delta_ms = number<std::int64_t>("delta-ms", value);
    } else if (parse_flag(arg, "epsilon-ms", value)) {
      options.epsilon_ms = number<std::int64_t>("epsilon-ms", value);
    } else if (parse_flag(arg, "seed", value)) {
      options.seed = number<std::uint64_t>("seed", value);
    } else if (parse_flag(arg, "protocol", value)) {
      options.protocol = value;
    } else if (parse_flag(arg, "reads", value)) {
      options.reads = value;
    } else if (parse_flag(arg, "workload", value)) {
      options.workload = value;
    } else if (parse_flag(arg, "ops", value)) {
      options.ops = number<int>("ops", value);
    } else if (parse_flag(arg, "gst-ms", value)) {
      options.gst_ms = number<std::int64_t>("gst-ms", value);
    } else if (parse_flag(arg, "loss", value)) {
      options.loss = number<double>("loss", value);
    } else if (parse_flag(arg, "crash-leader-at-ms", value)) {
      options.crash_leader_at_ms =
          number<std::int64_t>("crash-leader-at-ms", value);
    } else if (parse_flag(arg, "check", value)) {
      cli::require_one_of("check", value, {"on", "off"});
      options.check = value == "on";
    } else if (parse_flag(arg, "trace", value)) {
      options.trace = number<int>("trace", value);
    } else if (parse_flag(arg, "metrics-out", value)) {
      options.metrics_out = value;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the usage comment at the top of tools/chtread_sim.cc\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(2);
    }
  }
  cli::require_one_of("protocol", options.protocol, {"core", "raft", "vr"});
  const std::vector<std::string> modes = read_modes(options.protocol);
  if (options.reads.empty() && !modes.empty()) options.reads = modes.front();
  if (!options.reads.empty()) cli::require_one_of("reads", options.reads, modes);
  cli::require_one_of("workload", options.workload,
                      {"read-heavy", "write-heavy", "mixed"});
  return options;
}

harness::ClusterConfig cluster_config(const Options& options) {
  harness::ClusterConfig config;
  config.n = options.n;
  config.seed = options.seed;
  config.delta = Duration::millis(options.delta_ms);
  config.epsilon = Duration::millis(options.epsilon_ms);
  config.gst = RealTime::zero() + Duration::millis(options.gst_ms);
  config.pre_gst_loss = options.loss;
  return config;
}

double read_fraction(const std::string& workload) {
  if (workload == "read-heavy") return 0.9;
  if (workload == "write-heavy") return 0.1;
  return 0.5;  // mixed
}

// `overrides` are recorded in the artifact's config (chtread only).
template <class Stack>
int drive(harness::StackCluster<Stack>& cluster, const Options& options,
          const core::ConfigOverrides& overrides = {}) {
  cluster.await_leader(Duration::seconds(30));
  if (options.trace > 0) cluster.sim().trace().enable();
  Rng rng(options.seed * 31 + 1);
  const double reads = read_fraction(options.workload);
  bool crashed = false;
  for (int i = 0; i < options.ops; ++i) {
    const int proc = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(options.n)));
    if (cluster.replica(proc).crashed()) continue;
    if (rng.next_double() < reads) {
      cluster.submit(proc, object::KVObject::get(
                               "k" + std::to_string(rng.next_in(0, 3))));
    } else {
      cluster.submit(proc,
                     object::KVObject::put("k" + std::to_string(rng.next_in(0, 3)),
                                           "v" + std::to_string(i)));
    }
    cluster.run_for(Duration::millis(rng.next_in(2, 20)));
    if (!crashed && options.crash_leader_at_ms >= 0 &&
        cluster.sim().now() >=
            RealTime::zero() + Duration::millis(options.crash_leader_at_ms)) {
      const int leader = cluster.leader();
      if (leader >= 0) {
        std::cout << "[crash] killing leader p" << leader << " at "
                  << cluster.sim().now().to_millis_f() << " ms\n";
        cluster.sim().crash(ProcessId(leader));
        crashed = true;
      }
    }
  }
  const bool quiesced = cluster.await_quiesce(Duration::seconds(300));
  if (options.trace > 0) {
    std::cout << "\n--- last " << options.trace
              << " protocol trace events (leader/batch/lease/crash) ---\n";
    cluster.sim().trace().dump(std::cout,
                               static_cast<std::size_t>(options.trace));
    std::cout << "\n";
  }

  metrics::LatencyRecorder read_lat, write_lat;
  std::size_t pending = 0;
  for (const auto& op : cluster.history().ops()) {
    if (!op.completed()) {
      ++pending;
      continue;
    }
    (op.op.kind == "get" ? read_lat : write_lat).record(op.latency());
  }
  cht::bench::ExperimentResult result("sim", options.metrics_out,
                                      /*smoke=*/false);
  result.begin("chtread_sim: protocol=" + options.protocol +
                   " workload=" + options.workload,
               "seed=" + std::to_string(options.seed) +
                   " n=" + std::to_string(options.n) +
                   " delta=" + std::to_string(options.delta_ms) + "ms");
  result.columns({"metric", "value"});
  result.row({"simulated time (s)",
              metrics::Table::num(cluster.sim().now().to_seconds_f(), 2)});
  result.row({"operations completed",
              metrics::Table::num(static_cast<std::int64_t>(
                  cluster.completed()))});
  result.row({"operations pending",
              metrics::Table::num(static_cast<std::int64_t>(pending))});
  if (!read_lat.empty()) {
    result.row({"read p50/p99 (ms)",
                metrics::Table::num(read_lat.p50().to_millis_f(), 2) + " / " +
                    metrics::Table::num(read_lat.p99().to_millis_f(), 2)});
  }
  if (!write_lat.empty()) {
    result.row({"write p50/p99 (ms)",
                metrics::Table::num(write_lat.p50().to_millis_f(), 2) + " / " +
                    metrics::Table::num(write_lat.p99().to_millis_f(), 2)});
  }
  result.row({"messages sent",
              metrics::Table::num(cluster.sim().network().stats().sent)});
  result.end();

  result.metric("ops_completed",
                static_cast<std::int64_t>(cluster.completed()));
  result.metric("ops_pending", static_cast<std::int64_t>(pending));
  result.metric("simulated_time_us", (cluster.sim().now() - RealTime::zero())
                                         .to_micros());
  result.latency("reads", read_lat);
  result.latency("rmws", write_lat);
  result.config(options.protocol, cluster.config(), overrides);
  result.observe(options.protocol, cluster);

  if (!quiesced) {
    std::cout << "note: some operations never completed (expected when the\n"
              << "submitting process crashed or no majority is connected)\n";
  }
  int exit_code = 0;
  if (options.check) {
    const auto check =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    std::cout << "linearizable: " << (check.linearizable ? "YES" : "NO");
    if (!check.linearizable) std::cout << "  (" << check.explanation << ")";
    std::cout << "\n";
    result.metric("linearizable",
                  static_cast<std::int64_t>(check.linearizable ? 1 : 0));
    exit_code = check.linearizable ? 0 : 1;
  }
  if (!options.metrics_out.empty()) {
    const int finish_code = result.finish();
    if (exit_code == 0) exit_code = finish_code;
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  auto model = std::make_shared<object::KVObject>();
  std::cout << "chtread_sim: protocol=" << options.protocol;
  if (!options.reads.empty()) std::cout << " reads=" << options.reads;
  std::cout << " n=" << options.n
            << " delta=" << options.delta_ms << "ms seed=" << options.seed
            << "\n";

  if (options.protocol == "core") {
    core::ConfigOverrides overrides;
    if (options.reads == "core-forward") {
      overrides.read_policy = core::ReadPolicy::kLeaderForward;
    } else if (options.reads == "core-anypending") {
      overrides.read_policy = core::ReadPolicy::kAnyPendingBlocks;
    }
    harness::Cluster cluster(cluster_config(options), model, overrides);
    return drive(cluster, options, overrides);
  }
  if (options.protocol == "raft") {
    const raft::ReadMode mode = options.reads == "raft-lease"
                                    ? raft::ReadMode::kLeaderLease
                                    : raft::ReadMode::kReadIndex;
    harness::RaftCluster cluster(cluster_config(options), model, mode);
    return drive(cluster, options);
  }
  harness::VrCluster cluster(cluster_config(options), model);
  return drive(cluster, options);
}
