// chtread_fuzz — parallel deterministic chaos fuzzer.
//
// Fans seed ranges across hardware threads; each seed is one independent
// deterministic simulation of a protocol stack under a nemesis profile, held
// to the full invariant registry (linearizability, liveness after heal,
// election safety / committed-prefix agreement, durability of acked writes
// across power cycles). Failing seeds dump self-contained repro artifacts
// that --repro replays bit-identically.
//
// Usage:
//   chtread_fuzz [--protocol=chtread|raft|raft-lease|vr|all]
//                [--profile=calm|rolling-partitions|leader-hunter|
//                 clock-storm|power-cycle|crash-loop|degraded-reads|all]
//                [--object=kv|counter|bank|queue|lock|all]
//                [--seeds=200] [--seed-start=1] [--threads=0 (auto)]
//                [--n=5] [--ops=80] [--read-fraction=0.5] [--key-skew=0.5]
//                [--delta-ms=10] [--epsilon-ms=1] [--gst-ms=1000]
//                [--loss=0.1] [--sync-latency-us=5000] [--key-loss=0.5]
//                [--group-commit=1] [--client-path=1] [--clock-guard=1]
//                [--max-inflight=6] [--check-budget=500000]
//                [--artifact-dir=.] [--metrics-out=PATH.json] [--verbose]
//   chtread_fuzz --repro=<artifact-file>
//
// --metrics-out writes the sweep summary plus, per protocol, a full
// observability capture (merged per-process metric registries, span
// histograms, message counts) from one representative re-run of the first
// (profile, object) combination — schema cht.bench.v1, same as the benches.
//
// Exit status: 0 if every run passed (or a --repro replay reproduced its
// recorded fingerprint), 1 otherwise.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/adapter.h"
#include "chaos/nemesis.h"
#include "chaos/spec.h"
#include "chaos/sweep.h"
#include "common/experiment.h"
#include "flags.h"
#include "metrics/table.h"

namespace {

using namespace cht;  // NOLINT: tool brevity

struct Options {
  chaos::RunSpec base;
  std::string protocol = "chtread";
  std::string profile = "rolling-partitions";
  std::string object = "kv";
  int seeds = 50;
  std::uint64_t seed_start = 1;
  int threads = 0;
  std::string artifact_dir = ".";
  std::string repro;
  std::string metrics_out;  // bench-artifact JSON path; empty = off
  bool verbose = false;
};

Options parse(int argc, char** argv) {
  using cli::number;
  using cli::parse_flag;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (parse_flag(arg, "protocol", value)) {
      options.protocol = value;
    } else if (parse_flag(arg, "profile", value)) {
      options.profile = value;
    } else if (parse_flag(arg, "object", value)) {
      options.object = value;
    } else if (parse_flag(arg, "seeds", value)) {
      options.seeds = number("seeds", value, 1);
    } else if (parse_flag(arg, "seed-start", value)) {
      options.seed_start = number<std::uint64_t>("seed-start", value);
    } else if (parse_flag(arg, "threads", value)) {
      options.threads = number<int>("threads", value);
    } else if (parse_flag(arg, "n", value)) {
      options.base.n = number("n", value, 1);
    } else if (parse_flag(arg, "ops", value)) {
      options.base.ops = number("ops", value, 1);
    } else if (parse_flag(arg, "read-fraction", value)) {
      options.base.read_fraction = number<double>("read-fraction", value);
    } else if (parse_flag(arg, "key-skew", value)) {
      options.base.key_skew = number<double>("key-skew", value);
    } else if (parse_flag(arg, "delta-ms", value)) {
      options.base.delta_ms = number<std::int64_t>("delta-ms", value);
    } else if (parse_flag(arg, "epsilon-ms", value)) {
      options.base.epsilon_ms = number<std::int64_t>("epsilon-ms", value);
    } else if (parse_flag(arg, "gst-ms", value)) {
      options.base.gst_ms = number<std::int64_t>("gst-ms", value);
    } else if (parse_flag(arg, "loss", value)) {
      options.base.pre_gst_loss = number<double>("loss", value);
    } else if (parse_flag(arg, "sync-latency-us", value)) {
      options.base.sync_latency_us =
          number<std::int64_t>("sync-latency-us", value);
    } else if (parse_flag(arg, "key-loss", value)) {
      options.base.unsynced_key_loss = number<double>("key-loss", value);
    } else if (parse_flag(arg, "group-commit", value)) {
      options.base.group_commit = number<int>("group-commit", value) != 0;
    } else if (parse_flag(arg, "client-path", value)) {
      options.base.client_path = number<int>("client-path", value) != 0;
    } else if (parse_flag(arg, "clock-guard", value)) {
      options.base.clock_guard = number<int>("clock-guard", value) != 0;
    } else if (parse_flag(arg, "max-inflight", value)) {
      options.base.max_inflight = number("max-inflight", value, 1);
    } else if (parse_flag(arg, "check-budget", value)) {
      options.base.check_budget = number<std::int64_t>("check-budget", value);
    } else if (parse_flag(arg, "artifact-dir", value)) {
      options.artifact_dir = value;
    } else if (parse_flag(arg, "repro", value)) {
      options.repro = value;
    } else if (parse_flag(arg, "metrics-out", value)) {
      options.metrics_out = value;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the usage comment at the top of tools/chtread_fuzz.cc\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(2);
    }
  }
  // Validate names up front so a typo gets a usage error, not an assert
  // from deep inside adapter construction. (Numeric flags were checked as
  // they were parsed, so a vacuous --seeds=0 or --ops=0 sweep cannot report
  // "all runs passed".)
  const auto check_name = [](const std::string& flag, const std::string& value,
                             const std::vector<std::string>& known) {
    if (value == "all") return;
    for (const auto& k : known) {
      if (value == k) return;
    }
    std::cerr << "unknown --" << flag << "=" << value << " (known:";
    for (const auto& k : known) std::cerr << " " << k;
    std::cerr << " all)\n";
    std::exit(2);
  };
  if (options.repro.empty()) {
    check_name("protocol", options.protocol, chaos::known_protocols());
    check_name("profile", options.profile, chaos::known_profiles());
    check_name("object", options.object, chaos::known_objects());
  }
  return options;
}

int replay(const std::string& path) {
  const auto artifact = chaos::load_artifact(path);
  if (!artifact) {
    std::cerr << "cannot read repro artifact: " << path << "\n";
    return 2;
  }
  std::cout << "replaying " << path << " (protocol=" << artifact->spec.protocol
            << " profile=" << artifact->spec.profile
            << " object=" << artifact->spec.object
            << " seed=" << artifact->spec.seed << ")\n";
  const chaos::RunResult result = chaos::run_one(artifact->spec);
  std::cout << "verdict: " << (result.ok() ? "PASS" : "FAIL") << "\n";
  for (const auto& v : result.violations) std::cout << "  violation: " << v << "\n";
  const bool identical = result.fingerprint == artifact->fingerprint;
  std::cout << "fingerprint: " << result.fingerprint
            << (identical ? "  (bit-identical to artifact)"
                          : "  (DIFFERS from artifact " + artifact->fingerprint +
                                ")")
            << "\n";
  return identical ? 0 : 1;
}

std::vector<std::string> expand(const std::string& value,
                                const std::vector<std::string>& all) {
  if (value == "all") return all;
  return {value};
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (!options.repro.empty()) return replay(options.repro);

  const auto protocols = expand(options.protocol, chaos::known_protocols());
  const auto profiles = expand(options.profile, chaos::known_profiles());
  const auto objects = expand(options.object, chaos::known_objects());

  cht::bench::ExperimentResult result("fuzz", options.metrics_out,
                                      /*smoke=*/false);
  result.begin("chtread_fuzz seed sweep",
               "seeds=" + std::to_string(options.seeds) +
                   " start=" + std::to_string(options.seed_start) +
                   " n=" + std::to_string(options.base.n) +
                   " ops=" + std::to_string(options.base.ops));
  result.columns({"protocol", "profile", "object", "seeds", "failed",
                  "undecided", "leader changes", "crashes", "restarts"});
  int total_failures = 0;
  int total_undecided = 0;
  std::vector<std::string> artifacts;
  for (const auto& protocol : protocols) {
    for (const auto& profile : profiles) {
      for (const auto& object : objects) {
        chaos::RunSpec base = options.base;
        base.protocol = protocol;
        base.profile = profile;
        base.object = object;
        chaos::SweepOptions sweep_options;
        sweep_options.threads = options.threads;
        sweep_options.artifact_dir = options.artifact_dir;
        if (options.verbose) {
          sweep_options.on_result = [](const chaos::RunResult& r) {
            std::cout << "  " << r.spec.protocol << " " << r.spec.profile
                      << " " << r.spec.object << " seed " << r.spec.seed << ": "
                      << (r.ok() ? "ok" : "FAIL") << "  ops "
                      << r.completed << "/" << r.submitted << "  leaders "
                      << r.leadership_changes << "  fp " << r.fingerprint
                      << "\n";
          };
        }
        const chaos::SweepResult sweep = chaos::sweep_seeds(
            base, options.seed_start, options.seeds, sweep_options);
        std::int64_t leaders = 0;
        int crashes = 0;
        int restarts = 0;
        for (const auto& r : sweep.results) {
          leaders += r.leadership_changes;
          crashes += r.crashes;
          restarts += r.restarts;
        }
        result.row({protocol, profile, object,
                    metrics::Table::num(std::int64_t{options.seeds}),
                    metrics::Table::num(std::int64_t{sweep.failures()}),
                    metrics::Table::num(std::int64_t{sweep.undecided()}),
                    metrics::Table::num(leaders),
                    metrics::Table::num(std::int64_t{crashes}),
                    metrics::Table::num(std::int64_t{restarts})});
        total_failures += sweep.failures();
        total_undecided += sweep.undecided();
        for (const auto& path : sweep.artifacts) artifacts.push_back(path);
        for (const auto seed : sweep.failing_seeds()) {
          std::cout << "FAIL protocol=" << protocol << " profile=" << profile
                    << " object=" << object << " seed=" << seed << "\n";
        }
      }
    }
  }
  result.end();
  for (const auto& path : artifacts) {
    std::cout << "repro artifact: " << path << "\n";
  }
  if (total_undecided > 0) {
    std::cout << total_undecided
              << " runs undecided (checker state budget exhausted; rerun with "
                 "a larger --check-budget or smaller --max-inflight)\n";
  }
  std::cout << (total_failures == 0 ? "all runs passed"
                                    : std::to_string(total_failures) +
                                          " runs FAILED")
            << "\n";

  int exit_code = total_failures == 0 ? 0 : 1;
  if (!options.metrics_out.empty()) {
    result.metric("total_failures", std::int64_t{total_failures});
    result.metric("total_undecided", std::int64_t{total_undecided});
    // One representative re-run per protocol (first profile/object combo)
    // to capture merged registries, span histograms and message counts.
    for (const auto& protocol : protocols) {
      chaos::RunSpec spec = options.base;
      spec.protocol = protocol;
      spec.profile = profiles.front();
      spec.object = objects.front();
      spec.seed = options.seed_start;
      const auto cluster = chaos::make_adapter(spec);
      chaos::run(*cluster, spec);
      metrics::Registry merged;
      cluster->merge_metrics_into(merged);
      metrics::LatencyRecorder reads;
      metrics::LatencyRecorder rmws;
      for (const auto& op : cluster->history().ops()) {
        if (!op.completed()) continue;
        (cluster->model().is_read(op.op) ? reads : rmws).record(op.latency());
      }
      result.observe_registry(protocol, merged,
                              cluster->sim().network().stats());
      result.latency(protocol + "-reads", reads);
      result.latency(protocol + "-rmws", rmws);
    }
    const int finish_code = result.finish();
    if (exit_code == 0) exit_code = finish_code;
  }
  return exit_code;
}
