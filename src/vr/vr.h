// Viewstamped Replication baseline (Oki & Liskov PODC'88; Liskov & Cowling,
// "Viewstamped Replication Revisited", MIT-CSAIL-TR-2012-021).
//
// The paper's Section 5 contrasts two VR design points with its algorithm:
//   - *static leader order*: the leader of view v is process (v mod n).
//     "If the next several processes to become leaders based on the IDs are
//     partitioned away from the majority, the system will cycle through a
//     succession of ineffective views before it reaches one whose leader
//     can commit operations" — measurable here (see bench_failover);
//   - *reads treated like all other operations*: every read goes through
//     the full Prepare/PrepareOK round, so reads are neither local nor fast.
//
// Scope: normal operation (Prepare/PrepareOK with in-order log append,
// commit on f+1, piggybacked commit numbers), view changes
// (StartViewChange/DoViewChange/StartView), and state transfer for lagging
// replicas (NewState). Application recovery protocol and reconfiguration
// are out of scope.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "client/gateway.h"
#include "common/time.h"
#include "common/types.h"
#include "metrics/registry.h"
#include "metrics/span.h"
#include "object/object.h"
#include "sim/process.h"

namespace cht::vr {

struct VrConfig {
  Duration heartbeat_interval = Duration::millis(10);   // leader commit msgs
  Duration view_change_timeout = Duration::millis(100); // follower patience
  Duration client_retry = Duration::millis(40);

  static VrConfig defaults_for(Duration delta) {
    VrConfig c;
    c.heartbeat_interval = delta;
    c.view_change_timeout = 10 * delta;
    c.client_retry = 4 * delta;
    return c;
  }
};

struct VrLogEntry {
  OperationId id;
  object::Operation op;
  bool operator==(const VrLogEntry&) const = default;
};

namespace msg {

inline constexpr const char* kRequest = "vr.request";
inline constexpr const char* kPrepare = "vr.prepare";
inline constexpr const char* kPrepareOk = "vr.prepareok";
inline constexpr const char* kCommit = "vr.commit";
inline constexpr const char* kStartViewChange = "vr.startviewchange";
inline constexpr const char* kDoViewChange = "vr.doviewchange";
inline constexpr const char* kStartView = "vr.startview";
inline constexpr const char* kGetState = "vr.getstate";
inline constexpr const char* kNewState = "vr.newstate";
inline constexpr const char* kRecovery = "vr.recovery";
inline constexpr const char* kRecoveryResponse = "vr.recoveryresponse";

struct Request {
  OperationId id;
  object::Operation op;
};

struct Prepare {
  std::int64_t view = 0;
  std::int64_t op_number = 0;        // number of the LAST entry in `entries`
  std::vector<VrLogEntry> entries;  // suffix starting after follower's ack
  std::int64_t commit_number = 0;
};

struct PrepareOk {
  std::int64_t view = 0;
  std::int64_t op_number = 0;
};

struct Commit {
  std::int64_t view = 0;
  std::int64_t commit_number = 0;
};

struct StartViewChange {
  std::int64_t view = 0;
};

struct DoViewChange {
  std::int64_t view = 0;
  std::vector<VrLogEntry> log;
  std::int64_t last_normal_view = 0;
  std::int64_t op_number = 0;
  std::int64_t commit_number = 0;
};

struct StartView {
  std::int64_t view = 0;
  std::vector<VrLogEntry> log;
  std::int64_t op_number = 0;
  std::int64_t commit_number = 0;
};

struct GetState {
  std::int64_t view = 0;
  std::int64_t op_number = 0;  // requester's last op
};

struct NewState {
  std::int64_t view = 0;
  std::vector<VrLogEntry> suffix;  // entries after the requested op_number
  std::int64_t op_number = 0;
  std::int64_t commit_number = 0;
};

// VR Revisited sec. 4.3 recovery protocol: VR keeps no stable storage at
// all; a restarted replica re-learns its state from a quorum, with a nonce
// tying responses to this particular recovery attempt (a response to an
// earlier, pre-crash attempt must not be mistaken for a current one).
struct Recovery {
  std::uint64_t nonce = 0;
};

struct RecoveryResponse {
  std::uint64_t nonce = 0;
  std::int64_t view = 0;
  // Only the primary of `view` ships its log (and the fields below are only
  // meaningful with it); follower responses just certify the view count.
  bool is_primary = false;
  std::vector<VrLogEntry> log;
  std::int64_t op_number = 0;
  std::int64_t commit_number = 0;
};

}  // namespace msg

class VrReplica : public sim::Process {
 public:
  using Callback = std::function<void(const object::Response&)>;
  enum class Status { kNormal, kViewChange, kRecovering };

  VrReplica(std::shared_ptr<const object::ObjectModel> model, VrConfig config);

  // Client API: VR treats reads and RMWs identically. Returns the
  // operation's id for harness-side durability accounting.
  OperationId submit(object::Operation op, Callback callback);

  void on_start() override;
  // VR Revisited sec. 4.3: rejoin via the nonce-based recovery protocol —
  // broadcast Recovery, wait for a majority of RecoveryResponses including
  // one from the primary of the newest view seen, adopt its log. No stable
  // storage involved; the replica takes no protocol steps while recovering.
  void on_restart() override;
  void on_message(const sim::Message& message) override;

  std::int64_t view() const { return view_; }
  Status status() const { return status_; }
  bool is_primary() const {
    return status_ == Status::kNormal && primary_of(view_) == id();
  }
  std::int64_t commit_number() const { return commit_number_; }
  std::size_t log_size() const { return log_.size(); }
  const std::vector<VrLogEntry>& log() const { return log_; }
  const object::ObjectState& applied_state() const { return *state_; }

  // Observability: view-change duration span (see docs/OBSERVABILITY.md).
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  // Replica-side endpoint for networked clients (src/client/): everything —
  // reads included — is accepted only at the primary of a normal view;
  // other replicas redirect at primary_of(view).
  client::ReplicaGateway& client_gateway() { return gateway_; }

 private:
  struct PendingClientOp {
    object::Operation op;
    Callback callback;
    sim::EventHandle retry_timer;
  };

  ProcessId primary_of(std::int64_t view) const {
    return ProcessId(static_cast<int>(view % cluster_size()));
  }
  int majority() const { return cluster_size() / 2 + 1; }
  std::int64_t op_number() const {
    return static_cast<std::int64_t>(log_.size());
  }

  // Normal operation.
  void on_request(ProcessId from, const msg::Request& request);
  void on_prepare(ProcessId from, const msg::Prepare& prepare);
  void on_prepare_ok(ProcessId from, const msg::PrepareOk& ok);
  void on_commit(ProcessId from, const msg::Commit& commit);
  void advance_commit(std::int64_t to);
  void apply_committed();
  void heartbeat_tick();
  void send_prepare_to(ProcessId to);

  // View changes.
  void reset_view_timer();
  void suspect_primary();
  void begin_view_change(std::int64_t new_view);
  void end_viewchange_span();
  void on_start_view_change(ProcessId from, const msg::StartViewChange& m);
  void maybe_send_do_view_change();
  void on_do_view_change(ProcessId from, const msg::DoViewChange& m);
  void maybe_become_primary();
  void on_start_view(ProcessId from, const msg::StartView& m);

  // State transfer.
  void on_get_state(ProcessId from, const msg::GetState& m);
  void on_new_state(const msg::NewState& m);
  void truncate_uncommitted_tail();

  // Crash recovery (sec. 4.3).
  void seed_op_sequence();
  void recovery_tick();
  void on_recovery(ProcessId from, const msg::Recovery& m);
  void on_recovery_response(ProcessId from, const msg::RecoveryResponse& m);
  void maybe_finish_recovery();

  // Clients. A submitting process completes its own operation when it
  // applies the corresponding log entry (clients are colocated with
  // replicas, as in the other protocols here).
  void client_send(const OperationId& id);

  std::shared_ptr<const object::ObjectModel> model_;
  VrConfig config_;

  std::int64_t view_ = 0;
  Status status_ = Status::kNormal;
  std::int64_t last_normal_view_ = 0;
  std::vector<VrLogEntry> log_;
  // Ordered (not hashed): deterministic by construction (detlint rule D3).
  std::set<OperationId> ids_in_log_;
  std::int64_t commit_number_ = 0;
  std::int64_t applied_ = 0;
  std::unique_ptr<object::ObjectState> state_;

  // Primary state.
  std::vector<std::int64_t> acked_op_;  // per replica, highest PrepareOk
  sim::EventHandle heartbeat_timer_;

  // View-change state.
  std::set<int> svc_votes_;                       // StartViewChange senders
  std::map<int, msg::DoViewChange> dvc_received_; // by sender, for view_
  bool dvc_sent_ = false;                         // one DoViewChange per view
  sim::EventHandle view_timer_;

  // Recovery state (sec. 4.3).
  std::uint64_t recovery_nonce_ = 0;
  std::map<int, msg::RecoveryResponse> recovery_responses_;  // by sender
  sim::EventHandle recovery_timer_;

  // Client state.
  std::int64_t op_seq_ = 0;
  std::map<OperationId, PendingClientOp> pending_ops_;

  // Observability (write-only from protocol code).
  metrics::Registry metrics_;
  metrics::Span span_viewchange_;  // first StartViewChange -> normal status
  metrics::Counter* c_became_leader_;
  metrics::Counter* c_recoveries_;
  metrics::Counter* c_recovered_entries_;
  metrics::Span span_recovery_;    // restart -> recovery protocol finished

  // Networked-client endpoint (declared after metrics_: ctor order).
  client::ReplicaGateway gateway_;
};

}  // namespace cht::vr
