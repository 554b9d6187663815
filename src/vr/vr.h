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
#include <string_view>
#include <utility>
#include <vector>

#include "client/gateway.h"
#include "common/time.h"
#include "common/types.h"
#include "metrics/registry.h"
#include "metrics/span.h"
#include "object/object.h"
#include "sim/message.h"
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

struct Request {
  static constexpr std::string_view kType = "vr.request";
  OperationId id;
  object::Operation op;
};

struct Prepare {
  static constexpr std::string_view kType = "vr.prepare";
  std::int64_t view = 0;
  std::int64_t op_number = 0;        // number of the LAST entry in `entries`
  std::vector<VrLogEntry> entries;  // suffix starting after follower's ack
  std::int64_t commit_number = 0;
};

struct PrepareOk {
  static constexpr std::string_view kType = "vr.prepareok";
  std::int64_t view = 0;
  std::int64_t op_number = 0;
};

struct Commit {
  static constexpr std::string_view kType = "vr.commit";
  std::int64_t view = 0;
  std::int64_t commit_number = 0;
};

struct StartViewChange {
  static constexpr std::string_view kType = "vr.startviewchange";
  std::int64_t view = 0;
};

struct DoViewChange {
  static constexpr std::string_view kType = "vr.doviewchange";
  std::int64_t view = 0;
  std::vector<VrLogEntry> log;
  std::int64_t last_normal_view = 0;
  std::int64_t op_number = 0;
  std::int64_t commit_number = 0;
};

struct StartView {
  static constexpr std::string_view kType = "vr.startview";
  std::int64_t view = 0;
  std::vector<VrLogEntry> log;
  std::int64_t op_number = 0;
  std::int64_t commit_number = 0;
};

struct GetState {
  static constexpr std::string_view kType = "vr.getstate";
  std::int64_t view = 0;
  std::int64_t op_number = 0;  // requester's last op
};

struct NewState {
  static constexpr std::string_view kType = "vr.newstate";
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
  static constexpr std::string_view kType = "vr.recovery";
  std::uint64_t nonce = 0;
};

struct RecoveryResponse {
  static constexpr std::string_view kType = "vr.recoveryresponse";
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

  // Client API, mirroring core::Replica. VR treats reads like any other
  // operation: both run through the log under a replica-own id, invisible
  // to client sessions. submit_rmw returns the operation's id for
  // harness-side durability accounting.
  OperationId submit_rmw(object::Operation op, Callback callback);
  void submit_read(object::Operation op, Callback callback) {
    submit_rmw(std::move(op), std::move(callback));
  }
  // Networked-client entry point: appends an RMW under the client's session
  // id while primary, and ignores it otherwise (the client retries).
  // ids_in_log_ dedups retries whose entry already survives in the log.
  void submit_rmw_as(const OperationId& id, const object::Operation& op);

  void on_start() override;
  // VR Revisited sec. 4.3: rejoin via the nonce-based recovery protocol —
  // broadcast Recovery, wait for a majority of RecoveryResponses including
  // one from the primary of the newest view seen, adopt its log. No stable
  // storage involved; the replica takes no protocol steps while recovering.
  void on_restart() override;
  void on_message(const sim::Message& message) override;
  // What on_message dispatches to this replica's handlers: recovery traffic
  // first, even while recovering; the rest only in a normal or view-change
  // status, and after the client gateway declined it.
  using RecoveryInbox = sim::Inbox<msg::Recovery, msg::RecoveryResponse>;
  using Inbox =
      sim::Inbox<msg::Request, msg::Prepare, msg::PrepareOk, msg::Commit,
                 msg::StartViewChange, msg::DoViewChange, msg::StartView,
                 msg::GetState, msg::NewState>;

  std::int64_t view() const { return view_; }
  Status status() const { return status_; }
  bool is_primary() const {
    return status_ == Status::kNormal && primary_of(view_) == id();
  }
  bool is_leader() const { return is_primary(); }
  std::int64_t commit_number() const { return commit_number_; }
  std::size_t log_size() const { return log_.size(); }
  const std::vector<VrLogEntry>& log() const { return log_; }
  const object::ObjectState& applied_state() const { return *state_; }

  // Replica-side endpoint for networked clients (src/client/): everything —
  // reads included — is accepted only at the primary of a normal view;
  // other replicas redirect at leader_index().
  static constexpr bool kAnyReplicaServes = false;
  client::ReplicaGateway<VrReplica>& client_gateway() { return gateway_; }
  int leader_index() const { return primary_of(view_).index(); }

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

  // One on() overload per entry of either inbox.
  friend RecoveryInbox;
  friend Inbox;

  // Normal operation.
  void on(ProcessId from, const msg::Request& request);
  void on(ProcessId from, const msg::Prepare& prepare);
  void on(ProcessId from, const msg::PrepareOk& ok);
  void on(ProcessId from, const msg::Commit& commit);
  void advance_commit(std::int64_t to);
  void apply_committed();
  void heartbeat_tick();
  void send_prepare_to(ProcessId to);

  // View changes.
  void reset_view_timer();
  void suspect_primary();
  void begin_view_change(std::int64_t new_view);
  void on(ProcessId from, const msg::StartViewChange& m);
  void maybe_send_do_view_change();
  void on(ProcessId from, const msg::DoViewChange& m);
  void maybe_become_primary();
  void on(ProcessId from, const msg::StartView& m);

  // State transfer.
  void on(ProcessId from, const msg::GetState& m);
  void on(ProcessId from, const msg::NewState& m);
  void truncate_uncommitted_tail();

  // Crash recovery (sec. 4.3).
  void seed_op_sequence();
  void recovery_tick();
  void on(ProcessId from, const msg::Recovery& m);
  void on(ProcessId from, const msg::RecoveryResponse& m);
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

  // Observability (write-only from protocol code; docs/OBSERVABILITY.md).
  // First StartViewChange -> normal status.
  metrics::Span span_viewchange_{metrics().histogram("span.viewchange_us")};
  metrics::Counter* c_became_leader_ = &metrics().counter("became_leader");
  metrics::Counter* c_recoveries_ = &metrics().counter("recoveries");
  metrics::Counter* c_recovered_entries_ =
      &metrics().counter("recovery_log_replayed");
  // Restart -> recovery protocol finished.
  metrics::Span span_recovery_{metrics().histogram("span.recovery_us")};

  // Networked-client endpoint.
  client::ReplicaGateway<VrReplica> gateway_{*this};
};

}  // namespace cht::vr
