// Paxos Quorum Leases (Moraru, Andersen, Kaminsky; SoCC'14) — the lease
// *mechanism* only, as contrasted by the paper's Section 5:
//
//   - lease renewal involves a majority of *grantors* talking to every
//     leaseholder: Theta(n^2) messages per renewal, versus Theta(n) for the
//     paper's leader-granted leases;
//   - because PQL uses elapsed-time timers instead of synchronized clocks,
//     each grantor-leaseholder pair needs a four-message (two round-trip)
//     exchange per renewal — Promise / PromiseAck / Guarantee / GuaranteeAck
//     — versus the paper's single one-way LeaseGrant;
//   - a write revokes leases: grantors notify leaseholders and the write
//     waits for revocation acks (or expiry), and reads block while any
//     write is pending, conflicting or not; under a steady write stream the
//     guarantee never stays valid, permanently disabling local reads.
//
// We do not re-implement PQL's Paxos-based leaseholder-set agreement (the
// paper's third contrast point): the consensus substrate is shared with our
// core algorithm in the comparison benches. This module provides the
// renewal/revocation traffic and lease-validity timeline used by experiments
// E4/E5.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "core/clock_guard.h"
#include "metrics/registry.h"
#include "sim/process.h"

namespace cht::baselines {

struct PqlConfig {
  Duration renewal_interval = Duration::millis(30);
  Duration lease_duration = Duration::millis(120);
  // One-way delay budget used for the guard that a grantor's guarantee
  // expires at the grantor no later than at the leaseholder.
  Duration guard = Duration::millis(10);
  // After a revocation, guarantees already in flight (issued before the
  // revoke) must not resurrect the lease; the leaseholder ignores incoming
  // guarantees for this long (< renewal_interval, so the next full renewal
  // round re-establishes the lease).
  Duration revoke_quiet = Duration::millis(25);
  // Clock-health guard (core/clock_guard.h). PQL's elapsed-time timers are
  // less clock-sensitive than synchronized-clock leases, but the simulated
  // timers still tick on a skewable local clock, so a clock-suspect process
  // degrades lease_active() to false (callers fall back to quorum reads).
  core::ClockGuardConfig clock_guard;
};

namespace msg {
inline constexpr const char* kPromise = "pql.promise";
inline constexpr const char* kPromiseAck = "pql.promiseack";
inline constexpr const char* kGuarantee = "pql.guarantee";
inline constexpr const char* kGuaranteeAck = "pql.guaranteeack";
inline constexpr const char* kRevoke = "pql.revoke";
inline constexpr const char* kRevokeAck = "pql.revokeack";

struct Promise {
  std::int64_t round;
};
struct PromiseAck {
  std::int64_t round;
};
struct Guarantee {
  std::int64_t round;
};
struct GuaranteeAck {
  std::int64_t round;
};
struct Revoke {
  std::int64_t write_seq;
};
struct RevokeAck {
  std::int64_t write_seq;
};
}  // namespace msg

// Every process is both a grantor and a leaseholder (the common PQL
// deployment the paper compares against).
class PqlProcess : public sim::Process {
 public:
  explicit PqlProcess(PqlConfig config)
      : config_(config),
        clock_guard_(config_.clock_guard),
        c_clock_transitions_(&metrics_.counter("clock.suspect_transitions")),
        c_reads_degraded_(&metrics_.counter("reads.degraded")) {}

  void on_start() override;
  // Recovers the grantor round (synced before each Promise broadcast, so a
  // restarted grantor can never reuse a round number) and rejoins with all
  // leaseholder-side guarantees conservatively dropped.
  void on_restart() override;
  void on_message(const sim::Message& message) override;

  // True iff this process currently holds unexpired guarantees from a
  // majority of grantors and no revocation is in progress against it.
  bool lease_active();

  // Initiates a write as this process (playing the quorum's proposer):
  // revokes all leases and returns (via the simulator's timeline) once all
  // leaseholders acked or their leases expired. Completion is observable via
  // writes_completed().
  void begin_write();
  std::int64_t writes_completed() const { return writes_completed_; }

  const core::ClockSkewGuard& clock_guard() const { return clock_guard_; }
  // Clock guard metering (docs/OBSERVABILITY.md): suspect-state flips, and
  // lease_active() calls that would have answered true but were degraded to
  // false by suspicion.
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  struct PendingWrite {
    std::int64_t seq;
    std::vector<bool> acked;
    sim::EventHandle expiry_timer;
  };

  void renewal_tick();
  void maybe_finish_write();

  PqlConfig config_;

  // Grantor side.
  std::int64_t round_ = 0;

  // Leaseholder side: per grantor, the expiry (real time approximated by the
  // local timer timeline) of the last guarantee.
  std::vector<RealTime> guarantee_expiry_;
  RealTime revoke_quiet_until_ = RealTime::min();

  // Writer side.
  std::int64_t write_seq_ = 0;
  std::vector<PendingWrite> pending_writes_;
  std::int64_t writes_completed_ = 0;

  core::ClockSkewGuard clock_guard_;
  metrics::Registry metrics_;
  metrics::Counter* c_clock_transitions_;
  metrics::Counter* c_reads_degraded_;
};

}  // namespace cht::baselines
