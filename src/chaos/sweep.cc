#include "chaos/sweep.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <thread>

#include "chaos/invariants.h"
#include "chaos/nemesis.h"
#include "chaos/workload.h"
#include "sim/trace.h"

namespace cht::chaos {
namespace {

constexpr std::size_t kTraceTail = 40;

// Seed-stream tags: each run component draws from its own derived stream.
constexpr std::uint64_t kNemesisStream = 0x6e656d;   // "nem"
constexpr std::uint64_t kWorkloadStream = 0x776f726b;  // "work"
constexpr std::uint64_t kDriverStream = 0x64727631;  // "drv1"

// Slack appended to the nemesis window and allowed after healing before
// final-state invariants run: a few heartbeat intervals at any sane delta,
// so a just-healed stale leader can learn it was deposed.
constexpr Duration kSettleSlack = Duration::seconds(2);

std::uint64_t fnv1a(std::uint64_t hash, const std::string& s) {
  for (unsigned char c : s) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string fingerprint_of(const ClusterAdapter& cluster, RealTime end,
                           const std::vector<std::string>& violations) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& op : cluster.history().ops()) {
    std::ostringstream os;
    os << op.process << '|' << op.op << '|' << op.invoked.to_micros() << '|';
    if (op.completed()) {
      os << op.responded->to_micros() << '|' << *op.response;
    } else {
      os << "pending";
    }
    hash = fnv1a(hash, os.str());
  }
  hash = fnv1a(hash, std::to_string(end.to_micros()));
  for (const auto& v : violations) hash = fnv1a(hash, v);
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << hash;
  return os.str();
}

std::string format_double(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

RunResult run_one(const RunSpec& spec, const AdapterHook& hook) {
  RunResult result;
  result.spec = spec;

  std::unique_ptr<ClusterAdapter> adapter = make_adapter(spec);
  if (hook) adapter = hook(std::move(adapter));
  ClusterAdapter& cluster = *adapter;
  // Protocol-level events only: network events would dwarf them in the
  // artifact tail.
  cluster.sim().trace().enable(/*include_network=*/false);

  Nemesis nemesis(cluster,
                  nemesis_profile(spec.profile, spec.delta(), spec.epsilon()),
                  derive_seed(spec.seed, kNemesisStream));
  WorkloadGen workload(spec, derive_seed(spec.seed, kWorkloadStream));
  Rng driver(derive_seed(spec.seed, kDriverStream));

  // The nemesis stays active for a generous bound on the workload window; it
  // reschedules itself between submissions because run_for drains the same
  // event queue.
  nemesis.arm(Duration::millis((spec.op_gap_max_ms * 3 + 1) * spec.ops) +
              kSettleSlack);
  // Open operations at live processes. Pending ops whose submitter crashed
  // stay open forever and are excluded — they no longer add client load.
  const auto live_inflight = [&cluster] {
    std::size_t open = 0;
    for (const auto& op : cluster.history().ops()) {
      if (op.completed()) continue;
      // An op orphaned by a crash of its submitter stays open forever even
      // if the submitter restarted (the crash wiped the client session); it
      // no longer adds client load either way.
      if (cluster.crashed(op.process.index())) continue;
      if (cluster.sim().crashed_at_or_after(op.process, op.invoked)) continue;
      ++open;
    }
    return open;
  };
  for (int i = 0; i < spec.ops; ++i) {
    const int process = static_cast<int>(
        driver.next_below(static_cast<std::uint64_t>(spec.n)));
    const object::Operation op = workload.next();
    // Bounded client concurrency: stall (in simulated time) until an open
    // operation completes. The guard bounds the stall so a genuinely stuck
    // cluster still reaches the liveness check instead of spinning here.
    for (int guard = 0;
         live_inflight() >= static_cast<std::size_t>(spec.max_inflight) &&
         guard < 400;
         ++guard) {
      cluster.run_for(Duration::millis(spec.op_gap_max_ms));
    }
    const bool pre_gst = cluster.sim().now() < cluster.sim().network().config().gst;
    // On the client path the slot's client is alive regardless of replica
    // crashes (it retries elsewhere); without it, submission is colocated
    // with the replica and a crashed slot cannot accept work.
    if (spec.client_path || !cluster.crashed(process)) {
      cluster.submit(process, op);
    }
    // Slower pacing while the network is asynchronous bounds the concurrency
    // the checker must untangle (same discipline as the original chaos
    // suites).
    const std::int64_t gap =
        driver.next_in(spec.op_gap_min_ms, spec.op_gap_max_ms);
    cluster.run_for(Duration::millis(pre_gst ? gap * 3 : gap));
  }
  const RealTime heal_time = cluster.sim().now();
  nemesis.stop_and_heal();
  result.quiesced =
      cluster.await_quiesce(Duration::seconds(spec.quiesce_timeout_s));
  // Let leadership settle before final-state invariants (a just-healed stale
  // leader needs a few heartbeats to learn it was deposed).
  cluster.run_for(kSettleSlack);

  const NemesisProfile profile =
      nemesis_profile(spec.profile, spec.delta(), spec.epsilon());
  ExposureInput exposure;
  exposure.clock_guard = spec.clock_guard;
  exposure.delta = spec.delta();
  exposure.epsilon = spec.epsilon();
  exposure.skew_max = profile.clock_skew_max;
  if (!nemesis.skew_events().empty()) {
    exposure.first_skew = nemesis.skew_events().front().at;
    exposure.heal_time = heal_time;
  }
  InvariantReport report = check_invariants(
      cluster, profile, result.quiesced,
      spec.check_budget > 0 ? static_cast<std::size_t>(spec.check_budget) : 0,
      exposure);
  result.violations = std::move(report.violations);
  result.checker_decided = report.checker_decided;
  result.reads_excused = report.reads_excused;
  result.submitted = cluster.submitted();
  result.completed = cluster.completed();
  result.leadership_changes = cluster.leadership_changes();
  result.crashes = nemesis.crashes();
  result.restarts = nemesis.restarts();
  result.nemesis_schedule = nemesis.schedule_log();
  result.skew_events = nemesis.skew_events();
  for (int i = 0; i < cluster.n(); ++i) {
    result.guard_transitions.push_back(cluster.guard_transitions_of(i));
  }
  const auto& events = cluster.sim().trace().events();
  const std::size_t start =
      events.size() > kTraceTail ? events.size() - kTraceTail : 0;
  for (std::size_t i = start; i < events.size(); ++i) {
    std::ostringstream os;
    os << events[i].at.to_millis_f() << "ms " << events[i].process << " "
       << events[i].category;
    if (!events[i].detail.empty()) os << " " << events[i].detail;
    result.trace_tail.push_back(os.str());
  }
  for (const auto& op : cluster.history().ops()) {
    std::ostringstream os;
    os << op.process << " " << op.op << " @" << op.invoked.to_millis_f()
       << "ms";
    if (op.completed()) {
      os << " -> \"" << *op.response << "\" @" << op.responded->to_millis_f()
         << "ms";
    } else {
      os << " -> <pending>";
    }
    result.history.push_back(os.str());
  }
  result.fingerprint =
      fingerprint_of(cluster, cluster.sim().now(), result.violations);
  return result;
}

// --- Repro artifacts --------------------------------------------------------

bool write_artifact(const std::string& path, const RunResult& result) {
  std::ofstream out(path);
  if (!out) return false;
  const RunSpec& s = result.spec;
  out << "# chtread_fuzz repro artifact v1\n"
      << "# replay: chtread_fuzz --repro=" << path << "\n"
      << "protocol=" << s.protocol << "\n"
      << "profile=" << s.profile << "\n"
      << "object=" << s.object << "\n"
      << "seed=" << s.seed << "\n"
      << "n=" << s.n << "\n"
      << "delta_ms=" << s.delta_ms << "\n"
      << "epsilon_ms=" << s.epsilon_ms << "\n"
      << "gst_ms=" << s.gst_ms << "\n"
      << "pre_gst_loss=" << format_double(s.pre_gst_loss) << "\n"
      << "sync_latency_us=" << s.sync_latency_us << "\n"
      << "unsynced_key_loss=" << format_double(s.unsynced_key_loss) << "\n"
      << "group_commit=" << (s.group_commit ? 1 : 0) << "\n"
      << "client_path=" << (s.client_path ? 1 : 0) << "\n"
      << "clock_guard=" << (s.clock_guard ? 1 : 0) << "\n"
      << "ops=" << s.ops << "\n"
      << "read_fraction=" << format_double(s.read_fraction) << "\n"
      << "key_skew=" << format_double(s.key_skew) << "\n"
      << "keys=" << s.keys << "\n"
      << "op_gap_min_ms=" << s.op_gap_min_ms << "\n"
      << "op_gap_max_ms=" << s.op_gap_max_ms << "\n"
      << "max_inflight=" << s.max_inflight << "\n"
      << "check_budget=" << s.check_budget << "\n"
      << "quiesce_timeout_s=" << s.quiesce_timeout_s << "\n"
      << "fingerprint=" << result.fingerprint << "\n"
      << "quiesced=" << (result.quiesced ? 1 : 0) << "\n"
      << "crashes=" << result.crashes << "\n"
      << "restarts=" << result.restarts << "\n"
      << "reads_excused=" << result.reads_excused << "\n";
  out << "\n[violations]\n";
  for (const auto& v : result.violations) out << v << "\n";
  out << "\n[nemesis-schedule]\n";
  for (const auto& line : result.nemesis_schedule) out << line << "\n";
  out << "\n[trace-tail]\n";
  for (const auto& line : result.trace_tail) out << line << "\n";
  out << "\n[history]\n";
  for (const auto& line : result.history) out << line << "\n";
  return static_cast<bool>(out);
}

std::optional<Artifact> load_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Artifact artifact;
  // Artifacts written before the client path existed carry no client_path
  // key; they must replay as the legacy colocated runs they recorded. The
  // same applies to the clock guard: pre-guard artifacts recorded runs with
  // no guard in the replicas, so they replay with it off.
  artifact.spec.client_path = false;
  artifact.spec.clock_guard = false;
  bool saw_protocol = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '[') break;  // informational sections
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    RunSpec& s = artifact.spec;
    if (key == "protocol") { s.protocol = value; saw_protocol = true; }
    else if (key == "profile") s.profile = value;
    else if (key == "object") s.object = value;
    else if (key == "seed") s.seed = std::stoull(value);
    else if (key == "n") s.n = std::stoi(value);
    else if (key == "delta_ms") s.delta_ms = std::stoll(value);
    else if (key == "epsilon_ms") s.epsilon_ms = std::stoll(value);
    else if (key == "gst_ms") s.gst_ms = std::stoll(value);
    else if (key == "pre_gst_loss") s.pre_gst_loss = std::stod(value);
    else if (key == "sync_latency_us") s.sync_latency_us = std::stoll(value);
    else if (key == "unsynced_key_loss") s.unsynced_key_loss = std::stod(value);
    else if (key == "group_commit") s.group_commit = std::stoi(value) != 0;
    else if (key == "client_path") s.client_path = std::stoi(value) != 0;
    else if (key == "clock_guard") s.clock_guard = std::stoi(value) != 0;
    else if (key == "ops") s.ops = std::stoi(value);
    else if (key == "read_fraction") s.read_fraction = std::stod(value);
    else if (key == "key_skew") s.key_skew = std::stod(value);
    else if (key == "keys") s.keys = std::stoi(value);
    else if (key == "op_gap_min_ms") s.op_gap_min_ms = std::stoll(value);
    else if (key == "op_gap_max_ms") s.op_gap_max_ms = std::stoll(value);
    else if (key == "max_inflight") s.max_inflight = std::stoi(value);
    else if (key == "check_budget") s.check_budget = std::stoll(value);
    else if (key == "quiesce_timeout_s") s.quiesce_timeout_s = std::stoll(value);
    else if (key == "fingerprint") artifact.fingerprint = value;
  }
  // A file that never named a protocol or fingerprint is not an artifact;
  // replaying the default spec against an empty fingerprint would "fail"
  // confusingly instead of reporting the real problem.
  if (!saw_protocol || artifact.fingerprint.empty()) return std::nullopt;
  return artifact;
}

// --- Parallel seed sweep ----------------------------------------------------

SweepResult sweep_seeds(const RunSpec& base, std::uint64_t first_seed,
                        int count, const SweepOptions& options) {
  SweepResult sweep;
  sweep.results.resize(static_cast<std::size_t>(count));

  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;
  }
  threads = std::min(threads, count);

  // Everything a sweep returns must be independent of the worker count:
  // each seed index maps to a fixed seed regardless of which worker claims
  // it, results land in per-index slots, and artifact paths are collected
  // into per-index slots too (the old push_back-under-lock collected them in
  // completion order, which varied with --threads). Only the on_result
  // progress callback observes completion order, and is documented as such.
  std::atomic<int> next{0};
  std::mutex mu;  // serializes progress callbacks
  std::vector<std::string> artifact_slots(static_cast<std::size_t>(count));
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1);
      if (i >= count) return;
      RunSpec spec = base;
      spec.seed = first_seed + static_cast<std::uint64_t>(i);
      RunResult result = run_one(spec, options.hook);
      if (!result.ok() && !options.artifact_dir.empty()) {
        std::ostringstream path;
        path << options.artifact_dir << "/repro_" << spec.protocol << "_"
             << spec.profile << "_" << spec.object << "_seed" << spec.seed
             << ".txt";
        // No lock: artifact files have distinct per-seed names and the slot
        // is owned by exactly one worker.
        if (write_artifact(path.str(), result)) {
          artifact_slots[static_cast<std::size_t>(i)] = path.str();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (options.on_result) options.on_result(result);
        sweep.results[static_cast<std::size_t>(i)] = std::move(result);
      }
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  for (auto& path : artifact_slots) {
    if (!path.empty()) sweep.artifacts.push_back(std::move(path));
  }
  return sweep;
}

}  // namespace cht::chaos
