// The replication algorithm of Section 3.
//
// Each Replica is one of the paper's n processes. The paper structures a
// process as three parallel threads; in this event-driven runtime they map
// to:
//   Thread 1 (client operations)  -> submit_rmw / submit_read
//   Thread 2 (leader loop)        -> the per-process tick, driving a state
//                                    machine (Collecting -> Fetching ->
//                                    initial DoOps -> Steady, DoOps nested)
//   Thread 3 (message handling)   -> on_message dispatch
// The tick, every delta, is the replica's only periodic timer: Omega, the
// ELS renewal, the AmLeader poll, one pass of the steady leader's loop, the
// resends of every unanswered EstReq, Prepare, RMW and forwarded read, and
// gap fill. Only the protocol's deadlines (the commit gate, the lease-expiry
// wait and commit-wait) arm one-shot timers.
//
// Black code (consensus for RMW operations): EstReq/EstReply, Prepare/
// PrepareAck, Commit, batch fetch. Red code (read leases): LeaseGrant,
// LeaseRequest, and the local read path. Reads never send messages; batch
// gap-filling runs on the tick plus commit-path triggers and asks only for
// batches known to be committed, so the message count is independent of
// the number of reads.
//
// Read correctness note (why answering from the *current* applied state is
// right): a read computes k-hat from its lease and the conflicting pending
// batches, then waits until the replica has applied at least k-hat. The
// replica may by then have applied batches beyond k-hat; any such batch was
// either non-conflicting (cannot change the read's value) or was committed,
// which — by the lease promise — required this process's Prepare ack or an
// expired lease; in the acked case the batch was pending here when the read
// computed k-hat, so k-hat already covers it, and in the applied case the
// state correctly reflects a batch whose RMWs may already have responded,
// which linearizability *requires* the read to observe.
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "client/gateway.h"
#include "common/time.h"
#include "common/types.h"
#include "core/config.h"
#include "core/messages.h"
#include "leader/enhanced_leader.h"
#include "leader/omega.h"
#include "metrics/registry.h"
#include "metrics/span.h"
#include "object/object.h"
#include "sim/message.h"
#include "sim/process.h"

namespace cht::core {

class Replica : public sim::Process {
 public:
  using Callback = std::function<void(const object::Response&)>;

  Replica(std::shared_ptr<const object::ObjectModel> model, Config config);

  // --- Client API (paper Thread 1). Callbacks fire exactly once, possibly
  // synchronously (a non-blocking read completes inside submit_read).
  // submit_rmw returns the operation's protocol-level id so harnesses can
  // later ask "did this acknowledged write survive" (durability checking).
  OperationId submit_rmw(object::Operation op, Callback callback);
  // Networked-client entry point: submits an RMW under a caller-chosen id
  // (the client's session id, stable across retries). Duplicate ids — ones
  // already pending or already committed here — are ignored, which is what
  // makes client retries safe to re-inject.
  void submit_rmw_as(const OperationId& id, object::Operation op,
                     Callback callback = nullptr);
  void submit_read(object::Operation op, Callback callback);

  // Replica-side endpoint for networked clients (src/client/), exposed for
  // tests. Any replica takes an RMW (rmw_send forwards it to the believed
  // leader with retries) and serves plain reads from its lease.
  static constexpr bool kAnyReplicaServes = true;
  client::ReplicaGateway<Replica>& client_gateway() { return gateway_; }
  // Where this replica believes the leader is, for client Redirects.
  int leader_index() { return omega_.leader().index(); }

  // --- sim::Process ---------------------------------------------------------
  void on_start() override;
  // Crash-recovery extension (not in the paper, which assumes crash-stop;
  // deviation documented in DESIGN.md): replays the acceptor-side state that
  // was synced to StableStorage before any promise or acknowledgement left
  // this process, then rejoins as a follower. The lease is deliberately not
  // restored — a recovered process re-earns reads via a fresh LeaseGrant.
  void on_restart() override;
  void on_message(const sim::Message& message) override;
  // What on_message dispatches to this replica's handlers, once the clock
  // guard has observed the message and Omega, the ELS and the client
  // gateway have declined it.
  using Inbox =
      sim::Inbox<msg::RmwRequest, msg::EstReq, msg::EstReply, msg::Prepare,
                 msg::PrepareAck, msg::Commit, msg::LeaseGrant,
                 msg::LeaseRequest, msg::ReadRequest, msg::ReadReply,
                 msg::BatchRequest, msg::BatchReply>;

  // --- Introspection (tests, invariant checkers, benches) -------------------
  // The steady leader: steady phase and AmLeader still holds. Non-const:
  // AmLeader is evaluated against the current clock.
  bool is_leader();

  // The paper's per-process variables, read in place. Batches
  // 1..applied_upto() of Batch[] are all present.
  const std::map<BatchNumber, Batch>& batches() const { return batches_; }
  BatchNumber applied_upto() const { return applied_upto_; }
  BatchNumber max_known_batch() const { return max_known_batch_; }
  const std::optional<Estimate>& estimate() const { return estimate_; }
  const std::optional<Lease>& lease() const { return lease_; }
  // The leaseholder set of this process's current or latest reign.
  const std::set<int>& leaseholders() const { return leaseholders_; }

  const object::ObjectState& applied_state() const { return *state_; }
  const object::ObjectModel& model() const { return *model_; }
  const Config& config() const { return config_; }
  // Clock-health guard state, exposed for the chaos checker's
  // exposure-window accounting and for tests.
  const ClockSkewGuard& clock_guard() const { return clock_guard_; }

 private:
  // --- Leader state machine -------------------------------------------------
  enum class Phase { kFollower, kCollecting, kFetching, kInitDoOps, kSteady };

  struct DoOpsState {
    Batch ops;
    BatchNumber number = 0;
    std::set<int> ackers;
    LocalTime prepare_started;
    bool majority_reached = false;
    bool waiting_expiry = false;
    bool commit_waited = false;  // Spanner-style commit_wait performed
    bool initial = false;
    RealTime prepares_sent;  // last Prepare broadcast, for the resend
    sim::EventHandle gate_timer;
    sim::EventHandle expiry_timer;
  };

  struct PendingRmw {
    object::Operation op;
    Callback callback;
    // Degraded read riding the RMW path while this replica is clock-suspect:
    // counted as a read on completion, not as an RMW.
    bool is_read = false;
    RealTime invoked = RealTime::min();
    RealTime sent = RealTime::zero();  // last RmwRequest, for the resend
  };

  struct PendingRead {
    object::Operation op;
    Callback callback;
    std::optional<BatchNumber> khat;
    RealTime invoked;
    std::optional<LocalTime> stamp;  // ReadPolicy::kSafeTime timestamp
    bool counted_blocked = false;
  };

  // Thread-2 driving, once every delta: Omega's and the ELS's interval work,
  // the AmLeader poll (line 20) or one pass of the reign's current phase,
  // the resends and gap fill.
  void tick();
  // Whether a send made at `last` is due again: `ticks` deltas of real time
  // have passed since.
  bool resend_due(RealTime last, int ticks) const;
  void resend_client_requests();
  void become_leader(LocalTime t);
  void abdicate();
  bool check_still_leader();  // AmLeader(leader_time_, now); abdicates if not

  // Leader initialization (lines 26-36).
  void send_est_reqs();
  void on(ProcessId from, const msg::EstReply& reply);
  void maybe_finish_collecting();
  void maybe_finish_fetching();
  void begin_initial_commit();

  // DoOps (lines 52-70).
  void start_doops(Batch ops, BatchNumber number, bool initial);
  void send_prepares();
  void on(ProcessId from, const msg::PrepareAck& ack);
  void maybe_reach_majority();
  // How long after Prepares start before condition (ii) of the leaseholder
  // gate may fire: the paper's 2*delta message round trip, widened by the
  // worst-case fsync delay a follower pays before its PrepareAck may leave
  // (group-commit window wait + its own covering sync, each up to 1.25x the
  // configured base). Firing later is always safe — the gate then just
  // waits longer for real acks instead of punting to the lease-expiry
  // wait — so this only needs to be an upper bound. Zero sync latency
  // degenerates to exactly the paper's 2*delta.
  Duration prepare_ack_deadline() const;
  void check_leaseholder_gate();
  void finish_doops();

  // Steady-state leader loop (lines 39-51), one pass per tick.
  void enter_steady();
  void steady_pass();
  void issue_leases(LocalTime now);
  void maybe_start_next_batch();

  // Message handling (thread 3 + parts of thread 2): one on() overload per
  // Inbox entry.
  friend Inbox;
  void on(ProcessId from, const msg::RmwRequest& request);
  void forward_read_send(const OperationId& id);
  void on(ProcessId from, const msg::ReadRequest& request);
  void on(ProcessId from, const msg::ReadReply& reply);
  void on(ProcessId from, const msg::EstReq& request);
  void on(ProcessId from, const msg::Prepare& prepare);
  void on(ProcessId from, const msg::Commit& commit);
  void on(ProcessId from, const msg::LeaseGrant& grant);
  void on(ProcessId from, const msg::LeaseRequest& request);
  void on(ProcessId from, const msg::BatchRequest& request);
  void on(ProcessId from, const msg::BatchReply& reply);

  // Shared machinery.
  void adopt_estimate(Batch ops, LocalTime t, BatchNumber j);
  void store_batch(BatchNumber number, const Batch& ops);
  // Crash recovery: stable-storage schema and replay (see on_restart).
  void seed_op_sequences();
  void persist_promised();
  void persist_estimate();
  void persist_batch(BatchNumber number, const Batch& ops);
  void recover_from_storage();
  void apply_ready();
  void complete_rmw(const OperationId& id, const object::Response& response);
  void rmw_send(const OperationId& id);
  void request_missing_batches();
  void try_advance_reads();
  bool try_advance_read(PendingRead& read);
  // The k-hat wait of a blocked read: invocation to completion, real time.
  void record_read_block(RealTime invoked);
  // Clock-health guard: feed one received message's stamp pair; on a trip,
  // reroute the lease reads already pending here through the safe path.
  void guard_observe(const sim::Message& message);
  void submit_read_degraded(object::Operation op, Callback callback,
                            RealTime invoked);
  bool batch_conflicts_with(const object::Operation& read,
                            const Batch& batch) const;
  int majority() const { return cluster_size() / 2 + 1; }

  // --- Immutable wiring ---
  std::shared_ptr<const object::ObjectModel> model_;
  Config config_;
  leader::OmegaDetector omega_;
  leader::EnhancedLeaderService els_;

  // --- Observability (write-only from protocol code). Registered up front,
  // so artifacts list the full inventory even for phases that never ran;
  // recording is on iff Config::metrics_enabled. ---
  metrics::Counter* c_rmws_submitted_ = &metrics().counter("rmws_submitted");
  metrics::Counter* c_rmws_completed_ = &metrics().counter("rmws_completed");
  metrics::Counter* c_reads_submitted_ = &metrics().counter("reads_submitted");
  metrics::Counter* c_reads_completed_ = &metrics().counter("reads_completed");
  metrics::Counter* c_reads_blocked_ = &metrics().counter("reads_blocked");
  metrics::Counter* c_batches_committed_ =
      &metrics().counter("batches_committed_as_leader");
  metrics::Counter* c_became_leader_ = &metrics().counter("became_leader");
  metrics::Counter* c_abdicated_ = &metrics().counter("abdicated");
  // k-hat wait of blocked reads.
  metrics::Histogram* h_read_block_ =
      &metrics().histogram("span.read.block_us");
  metrics::Histogram* h_lease_interval_ =
      &metrics().histogram("span.lease.interval_us");
  // Prepare broadcast -> majority acks.
  metrics::Span span_doops_prepare_{
      metrics().histogram("span.doops.prepare_us")};
  // Majority -> leaseholder gate clear.
  metrics::Span span_doops_gate_{metrics().histogram("span.doops.gate_us")};
  // Prepare broadcast -> commit.
  metrics::Span span_doops_total_{metrics().histogram("span.doops.total_us")};
  // become_leader -> steady.
  metrics::Span span_leader_init_{metrics().histogram("span.leader.init_us")};
  // become_leader -> abdicate.
  metrics::Span span_leader_reign_{metrics().histogram("span.leader.reign_us")};
  metrics::Counter* c_recoveries_ = &metrics().counter("recoveries");
  metrics::Counter* c_recovered_batches_ =
      &metrics().counter("recovery_batches_replayed");
  metrics::Counter* c_clock_transitions_ =
      &metrics().counter("clock.suspect_transitions");
  metrics::Counter* c_reads_degraded_ = &metrics().counter("reads.degraded");
  // Restart -> first live-protocol sign.
  metrics::Span span_recovery_{metrics().histogram("span.recovery_us")};

  // --- Networked-client endpoint ---
  client::ReplicaGateway<Replica> gateway_{*this};

  // --- Persistent per-process algorithm state (all three threads) ---
  std::map<BatchNumber, Batch> batches_;                    // Batch[]
  std::optional<Estimate> estimate_;                        // (Ops, ts, k)
  std::map<BatchNumber, Batch> pending_batch_;              // PendingBatch[]
  LocalTime promised_ = LocalTime::min();  // highest EstReq/Prepare engaged
  BatchNumber applied_upto_ = 0;
  BatchNumber max_known_batch_ = 0;
  std::unique_ptr<object::ObjectState> state_;
  // Ordered (not hashed): protocol state must never expose hash-order
  // nondeterminism, and an ordered map keeps any future iteration
  // deterministic by construction (detlint rule D3).
  std::map<OperationId, BatchNumber> committed_op_batch_;
  std::optional<Lease> lease_;
  ClockSkewGuard clock_guard_;

  // --- Client-side state (thread 1) ---
  std::int64_t rmw_seq_ = 0;
  std::map<OperationId, PendingRmw> pending_rmw_;
  std::list<PendingRead> pending_reads_;
  // ReadPolicy::kLeaderForward only: reads awaiting a leader reply.
  struct ForwardedRead {
    object::Operation op;
    Callback callback;
    RealTime invoked;
    RealTime sent = RealTime::zero();  // last ReadRequest, for the resend
  };
  std::int64_t read_seq_ = 0;
  std::map<OperationId, ForwardedRead> forwarded_reads_;

  // --- Leader-side state (thread 2), reset on each reign ---
  Phase phase_ = Phase::kFollower;
  LocalTime leader_time_;                    // t: when this reign began
  std::map<int, msg::EstReply> est_replies_;
  std::optional<Estimate> chosen_;           // freshest collected estimate
  std::set<int> leaseholders_;
  LocalTime last_lease_issued_ = LocalTime::min();
  BatchNumber leader_next_batch_ = 1;
  std::map<OperationId, object::Operation> next_ops_;
  std::optional<DoOpsState> doops_;
  RealTime est_reqs_sent_;                   // last EstReq, for the resend
  RealTime last_commit_rebroadcast_ = RealTime::zero();
};

}  // namespace cht::core
