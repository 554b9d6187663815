// Deterministic chaos runs and the parallel seed sweeper.
//
// run() executes one fully deterministic simulation described by a RunSpec
// on a protocol stack built behind a ClusterAdapter: arm the Nemesis, drive
// the workload, heal, quiesce, and evaluate the invariant registry;
// run_one() builds the stack first. The result carries a fingerprint (a
// hash of the complete operation history and final simulated time); equal
// spec => equal fingerprint, which is what `chtread_fuzz --repro` verifies.
//
// sweep_seeds() fans N specs (same base, consecutive seeds) across worker
// threads. Each seed is an independent simulation with zero shared state, so
// the sweep parallelizes perfectly; failures dump self-contained repro
// artifacts (spec + nemesis schedule + trace tail + history) that
// load_artifact() turns back into an exact replay.
//
// Worker-count independence (tested by test_sweep_determinism): seed index i
// always runs seed first_seed+i no matter which worker claims it, and both
// `results` and `artifacts` come back in seed order — `--threads N` can
// never change which seeds fail, their fingerprints, or the artifact list.
// Only the on_result progress callback fires in completion order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chaos/adapter.h"
#include "chaos/nemesis.h"
#include "chaos/spec.h"

namespace cht::chaos {

struct RunResult {
  RunSpec spec;
  bool quiesced = false;
  // False iff the linearizability search exhausted spec.check_budget; the
  // run then counts as neither pass nor fail on that axis (surfaced in the
  // CLI summary so undecided seeds are never silently dropped).
  bool checker_decided = true;
  std::vector<std::string> violations;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  // Total leadership acquisitions across the cluster (elections won /
  // reigns begun) — the "how eventful was this seed" metric used to pick
  // corpus seeds.
  std::int64_t leadership_changes = 0;
  int crashes = 0;
  // Power-ups performed by the nemesis (restart/bounce actions plus the
  // end-of-run revival under power-cycling profiles).
  int restarts = 0;
  // Completed reads the exposure-window accounting had to excuse for the
  // verdict (see invariants.h). Nonzero only under allows_stale_reads
  // profiles with the clock guard on whose full history failed pass 1.
  std::size_t reads_excused = 0;
  // Clock-offset injections performed by the nemesis, in injection order,
  // and each replica's guard transitions (final incarnation) — together
  // enough to derive guard detection latency offline (bench_robustness).
  std::vector<SkewEvent> skew_events;
  std::vector<std::vector<core::ClockSkewGuard::Transition>> guard_transitions;
  std::string fingerprint;
  std::vector<std::string> nemesis_schedule;
  std::vector<std::string> trace_tail;
  // The complete recorded history, one formatted line per operation.
  std::vector<std::string> history;

  bool ok() const { return violations.empty(); }
};

// Runs one deterministic simulation on `cluster`, which must be freshly
// built for `spec` (make_adapter). The caller keeps the cluster, so it can
// read registries, network stats or the history after the run.
RunResult run(ClusterAdapter& cluster, const RunSpec& spec);

// make_adapter(spec), decorated by `hook` if set (see AdapterHook), then
// run(). The default runs the stack unmodified.
RunResult run_one(const RunSpec& spec, const AdapterHook& hook = nullptr);

// --- Repro artifacts --------------------------------------------------------

// Writes a self-contained artifact for a (typically failing) run.
// Returns false on I/O failure.
bool write_artifact(const std::string& path, const RunResult& result);

// Parses an artifact back into the spec it was produced from, plus the
// fingerprint recorded at dump time. Keys the spec does not have are
// ignored; missing ones take the RunSpec defaults. Returns nullopt if the
// file names no protocol or fingerprint, if a value is not wholly a number,
// or if the spec is one chtread_fuzz's flags refuse (n, ops or
// max_inflight below 1, or an unknown protocol, profile or object).
struct Artifact {
  RunSpec spec;
  std::string fingerprint;
};
std::optional<Artifact> load_artifact(const std::string& path);

// --- Parallel seed sweep ----------------------------------------------------

struct SweepOptions {
  int threads = 0;                 // 0 = hardware concurrency
  std::string artifact_dir;        // empty = do not write artifacts
  AdapterHook hook;                // test interposition (see evil.h)
  // Called under a lock as each seed finishes (progress reporting). Fires
  // in completion order — the one place a sweep is allowed to depend on
  // thread scheduling; never derive results from callback order.
  std::function<void(const RunResult&)> on_result;
};

struct SweepResult {
  std::vector<RunResult> results;  // ordered by seed
  std::vector<std::string> artifacts;  // ordered by seed (worker-count-free)

  int failures() const {
    int n = 0;
    for (const auto& r : results) {
      if (!r.ok()) ++n;
    }
    return n;
  }
  int undecided() const {
    int n = 0;
    for (const auto& r : results) {
      if (!r.checker_decided) ++n;
    }
    return n;
  }
  std::vector<std::uint64_t> failing_seeds() const {
    std::vector<std::uint64_t> seeds;
    for (const auto& r : results) {
      if (!r.ok()) seeds.push_back(r.spec.seed);
    }
    return seeds;
  }
};

SweepResult sweep_seeds(const RunSpec& base, std::uint64_t first_seed,
                        int count, const SweepOptions& options = {});

}  // namespace cht::chaos
