// Tunables of the replication algorithm.
//
// All protocol timing is expressed in terms of the model parameters:
// delta (the known post-GST bound on message delay, measured on local
// clocks) and epsilon (the known bound on clock skew). Each replica's only
// periodic timer is one tick every delta: Omega, the ELS renewal, the leader
// check, one pass of the steady leader's loop, the resends of unanswered
// messages and batch gap fill. The resend intervals are fixed multiples of
// the tick (replica.cc). The defaults follow the relationships the paper's
// analysis needs:
//   - LeasePeriod >> delta so leases are usually valid;
//   - lease renewals more frequent than LeasePeriod so a stable leader's
//     leases never lapse at connected processes;
//   - Omega timeout > tick + delta + epsilon and ELS support duration >
//     2 x tick + delta, so a stable leader is never suspected or unsupported.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "core/clock_guard.h"
#include "leader/enhanced_leader.h"
#include "leader/omega.h"

namespace cht::core {

// Which processes must acknowledge a Prepare (beyond the majority) before the
// leader may commit without waiting out lease expiry. These knobs isolate the
// mechanisms the paper contrasts in Section 5; the defaults are the paper's
// algorithm.
enum class CommitGate {
  // Paper: wait for the tracked leaseholder set (or lease expiry, once);
  // unresponsive processes are dropped from the set and delay RMWs at most
  // once.
  kLeaseholders,
  // Megastore-style: every process must acknowledge every write (or be
  // waited out each time); there is no leaseholder-set memory, so a crashed
  // process delays *every* subsequent write until it is invalidated again.
  kAllProcesses,
};

enum class ReadPolicy {
  // Paper: local reads against a lease, blocking only on *conflicting*
  // pending batches.
  kLocalLease,
  // Spanner option (a) / Raft without leases: forward every read to the
  // leader (non-local; concentrates load).
  kLeaderForward,
  // Paxos-Quorum-Leases-style conflict-blindness: a read waits for every
  // pending batch, whether or not it conflicts.
  kAnyPendingBlocks,
  // Spanner option (b): stamp the read with the current local time and wait
  // until the replica's safe time passes it (we use the leader's periodic
  // LeaseGrant timestamps as the safe-time watermark, which bounds the wait
  // by the renewal interval; pure Spanner waits for the next write and can
  // block unboundedly). Every read blocks, even with no writes in flight.
  kSafeTime,
  // DELIBERATELY UNSAFE: answer every read immediately from the local
  // applied state, with no lease and no blocking. Exists only to demonstrate
  // the necessity-of-blocking lower bound (paper Section 4): with this
  // policy the checker finds the linearizability violation that Theorem 4.1
  // predicts for any algorithm whose reads are "too fast".
  kUnsafeLocal,
};

struct Config {
  Duration delta = Duration::millis(10);
  Duration epsilon = Duration::millis(1);

  CommitGate commit_gate = CommitGate::kLeaseholders;
  ReadPolicy read_policy = ReadPolicy::kLocalLease;
  // Spanner-style commit wait: after the gate, the leader additionally waits
  // out this much clock uncertainty before committing each batch (zero for
  // the paper's algorithm, whose commit latency is independent of epsilon
  // after GST).
  Duration commit_wait = Duration::zero();

  Duration lease_period;  // read-lease validity
  // Leader renewal cadence. An idle leader renews on its tick, so the
  // interval is rounded up to whole ticks; a renewal due when a batch
  // starts leaves just before the batch's Prepares.
  Duration lease_renew_interval;

  leader::OmegaConfig omega;
  leader::EnhancedLeaderConfig els;

  // Runtime detection of broken epsilon-synchrony (clock_guard.h). While a
  // replica is clock-suspect its lease reads degrade to the RMW/consensus
  // path; disable to reproduce the paper's assume-synchrony behaviour.
  ClockGuardConfig clock_guard;

  // Whether each replica's metrics::Registry records anything. Metrics never
  // feed back into protocol decisions, so this flag cannot change simulation
  // behaviour (asserted by test_observability's determinism check).
  bool metrics_enabled = true;

  static Config defaults_for(Duration delta, Duration epsilon) {
    Config c;
    c.delta = delta;
    c.epsilon = epsilon;
    c.lease_period = 12 * delta;
    c.lease_renew_interval = 3 * delta;
    c.omega.timeout = 4 * delta + epsilon;
    c.els.support_duration = 8 * delta;
    c.els.history_horizon = 100 * delta;
    c.clock_guard = {.enabled = true, .delta = delta, .epsilon = epsilon};
    return c;
  }

  static Config defaults() {
    return defaults_for(Duration::millis(10), Duration::millis(1));
  }
};

inline const char* to_string(CommitGate gate) {
  switch (gate) {
    case CommitGate::kLeaseholders:
      return "leaseholders";
    case CommitGate::kAllProcesses:
      return "all_processes";
  }
  return "?";
}

inline const char* to_string(ReadPolicy policy) {
  switch (policy) {
    case ReadPolicy::kLocalLease:
      return "local_lease";
    case ReadPolicy::kLeaderForward:
      return "leader_forward";
    case ReadPolicy::kAnyPendingBlocks:
      return "any_pending_blocks";
    case ReadPolicy::kSafeTime:
      return "safe_time";
    case ReadPolicy::kUnsafeLocal:
      return "unsafe_local";
  }
  return "?";
}

// Declarative experiment-level deviations from `Config::defaults_for`. This
// replaces the old opaque `std::function<void(Config&)>` tweak callback:
// every field an experiment may vary is a named optional, so harnesses can
// print and serialize exactly what a run changed (the JSON artifacts embed
// `entries()` verbatim). Unset fields leave the computed defaults alone;
// `apply()` runs after `defaults_for(delta, epsilon)` has filled the config.
struct ConfigOverrides {
  std::optional<ReadPolicy> read_policy;
  std::optional<CommitGate> commit_gate;
  std::optional<Duration> commit_wait;
  std::optional<Duration> lease_period;
  std::optional<Duration> lease_renew_interval;
  std::optional<bool> metrics_enabled;

  void apply(Config& config) const {
    if (read_policy) config.read_policy = *read_policy;
    if (commit_gate) config.commit_gate = *commit_gate;
    if (commit_wait) config.commit_wait = *commit_wait;
    if (lease_period) config.lease_period = *lease_period;
    if (lease_renew_interval) {
      config.lease_renew_interval = *lease_renew_interval;
    }
    if (metrics_enabled) config.metrics_enabled = *metrics_enabled;
  }

  // The set fields as (name, value) strings, in declaration order — the
  // printable/serializable form used by tables and JSON artifacts.
  std::vector<std::pair<std::string, std::string>> entries() const {
    std::vector<std::pair<std::string, std::string>> out;
    const auto us = [](Duration d) {
      return std::to_string(d.to_micros()) + "us";
    };
    if (read_policy) out.emplace_back("read_policy", to_string(*read_policy));
    if (commit_gate) out.emplace_back("commit_gate", to_string(*commit_gate));
    if (commit_wait) out.emplace_back("commit_wait", us(*commit_wait));
    if (lease_period) out.emplace_back("lease_period", us(*lease_period));
    if (lease_renew_interval) {
      out.emplace_back("lease_renew_interval", us(*lease_renew_interval));
    }
    if (metrics_enabled) {
      out.emplace_back("metrics_enabled", *metrics_enabled ? "true" : "false");
    }
    return out;
  }
};

}  // namespace cht::core
