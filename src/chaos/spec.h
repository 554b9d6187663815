// A RunSpec is the complete, serializable description of one deterministic
// chaos run: protocol stack, nemesis profile, workload shape and every
// simulation parameter. Two runs with equal specs are bit-identical (same
// history, same trace, same verdict) — this is what makes a dumped repro
// artifact an exact replay and a seed sweep embarrassingly parallel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace cht::chaos {

struct RunSpec {
  // Which stack to exercise: "chtread" (the paper's algorithm),
  // "raft" (ReadIndex reads), "raft-lease" (leader-lease reads), or "vr".
  std::string protocol = "chtread";
  // Nemesis intensity profile: "calm", "rolling-partitions",
  // "leader-hunter", "clock-storm", "power-cycle", or "crash-loop"
  // (see nemesis.h).
  std::string profile = "calm";
  // Object model the workload runs over: kv|counter|bank|queue|lock.
  std::string object = "kv";

  std::uint64_t seed = 1;
  int n = 5;
  std::int64_t delta_ms = 10;
  std::int64_t epsilon_ms = 1;
  std::int64_t gst_ms = 1000;
  double pre_gst_loss = 0.1;

  // Stable-storage model. Chaos runs pay a nonzero fsync cost by default
  // (half a delta at the default delta_ms = 10) so every sweep exercises the
  // group-commit and pipelined write paths; benches sweep this axis
  // explicitly. unsynced_key_loss is the per-key probability that a keyed
  // write which was never synced is lost at crash time (0.0 and 1.0 are the
  // interesting extremes: "the page cache always survived" vs "everything
  // unsynced is gone").
  std::int64_t sync_latency_us = 5000;
  double unsynced_key_loss = 0.5;
  bool group_commit = true;

  // Networked client path (src/client/): when true (the default), the
  // harness adds n client processes and every workload operation travels
  // through one of them — over the simulated network, with timeouts,
  // exactly-once retries, Redirect-chasing and replica-side session dedup
  // all under the nemesis. false = colocated submission (ops injected
  // directly at replica slots), kept for the older corpus pins and A/B runs.
  bool client_path = true;

  // Clock-health guard (core/clock_guard.h): when true (the default),
  // replicas watch message stamps for epsilon-synchrony violations and
  // degrade lease reads to a clock-free path while suspect. With the guard
  // on, a stale read is only tolerated inside the bounded exposure window
  // between skew injection and the arrival of detecting evidence (see
  // invariants.cc); with it off, profiles with allows_stale_reads fall back
  // to the RMW-sub-history check.
  bool clock_guard = true;

  // Workload shape.
  int ops = 80;
  double read_fraction = 0.5;
  // Key selection bias: probability of stopping at each successive key
  // (geometric); 0 = uniform over the workload's keys.
  double key_skew = 0.5;
  // Hard cap on concurrently open operations at live processes. Bounds the
  // concurrency window the linearizability search must untangle (it is
  // exponential in that window); mirrors real clients with bounded
  // outstanding requests. The driver stalls (in simulated time) until an
  // operation completes before submitting past the cap.
  int max_inflight = 6;
  // State budget for the linearizability search (0 = unlimited). A run whose
  // search exhausts the budget is reported as undecided, not failed — a
  // safety valve so one adversarial seed cannot hang a sweep.
  std::int64_t check_budget = 500000;

  bool operator==(const RunSpec&) const = default;

  Duration delta() const { return Duration::millis(delta_ms); }
  Duration epsilon() const { return Duration::millis(epsilon_ms); }
  RealTime gst() const { return RealTime::zero() + Duration::millis(gst_ms); }
};

// The protocols a sweep with --protocol=all fans over.
const std::vector<std::string>& known_protocols();
// The profiles a sweep with --profile=all fans over.
const std::vector<std::string>& known_profiles();
// The object models a sweep with --object=all fans over.
const std::vector<std::string>& known_objects();

// Derives an independent seed stream for one component of a run (nemesis,
// workload, driver), so adding randomness to one never perturbs another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace cht::chaos
