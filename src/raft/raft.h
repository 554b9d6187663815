// Raft baseline (Ongaro & Ousterhout, USENIX ATC'14), implemented on the
// same simulation substrate as the paper's algorithm so the two can be
// compared head to head (paper Section 5).
//
// Scope: leader election with randomized timeouts, log replication with
// conflict truncation, commit on current-term majority match, a no-op entry
// at the start of each leadership term, and two read modes:
//
//   kReadIndex    — the paper's description of Raft reads: "each read
//                   operation is sent to the current leader, and when the
//                   leader receives a read request it exchanges heartbeat
//                   messages with a majority of the cluster before
//                   responding". Reads are never local and always block for
//                   at least one round trip to the leader plus one majority
//                   round.
//   kLeaderLease  — the etcd-style clock-based optimization Raft's authors
//                   mention in passing: the leader serves reads locally
//                   while it holds a majority heartbeat lease. Reads are
//                   still not local for followers (forwarded to the leader).
//
// Cluster membership changes and snapshotting are out of scope (the paper's
// comparison does not touch them).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "client/gateway.h"
#include "common/time.h"
#include "common/types.h"
#include "core/clock_guard.h"
#include "metrics/registry.h"
#include "metrics/span.h"
#include "object/object.h"
#include "sim/message.h"
#include "sim/process.h"

namespace cht::raft {

enum class ReadMode { kReadIndex, kLeaderLease };

struct RaftConfig {
  Duration heartbeat_interval = Duration::millis(10);
  Duration election_timeout_min = Duration::millis(100);
  Duration election_timeout_max = Duration::millis(200);
  ReadMode read_mode = ReadMode::kReadIndex;
  // Clock-health guard (core/clock_guard.h). Only kLeaderLease reads depend
  // on clocks, so only they degrade (to the ReadIndex round) while the
  // leader is clock-suspect; kReadIndex is clock-free already.
  core::ClockGuardConfig clock_guard;

  static RaftConfig defaults_for(Duration delta) {
    RaftConfig c;
    c.heartbeat_interval = delta;
    c.election_timeout_min = 10 * delta;
    c.election_timeout_max = 20 * delta;
    return c;
  }
};

struct LogEntry {
  std::int64_t term = 0;
  OperationId id;
  object::Operation op;
  bool operator==(const LogEntry&) const = default;
};

namespace msg {

struct RequestVote {
  static constexpr std::string_view kType = "raft.requestvote";
  std::int64_t term = 0;
  std::int64_t last_log_index = 0;
  std::int64_t last_log_term = 0;
};

struct VoteReply {
  static constexpr std::string_view kType = "raft.votereply";
  std::int64_t term = 0;
  bool granted = false;
};

struct AppendEntries {
  static constexpr std::string_view kType = "raft.appendentries";
  std::int64_t term = 0;
  std::int64_t prev_index = 0;
  std::int64_t prev_term = 0;
  std::vector<LogEntry> entries;
  std::int64_t leader_commit = 0;
  std::int64_t probe_seq = 0;  // ReadIndex confirmation round
  // Leader-local send time, echoed back in AppendReply. The read lease must
  // anchor at the time a heartbeat round was *sent*: the ack's receive time
  // overestimates how recently the follower reset its election timer by the
  // reply's flight time, which is unbounded before GST.
  LocalTime lease_stamp;
};

struct AppendReply {
  static constexpr std::string_view kType = "raft.appendreply";
  std::int64_t term = 0;
  bool success = false;
  std::int64_t match_index = 0;  // on success; on failure, follower's log length
  std::int64_t probe_seq = 0;
  LocalTime lease_stamp;  // echoed from the AppendEntries being answered
};

struct ClientRmw {
  static constexpr std::string_view kType = "raft.clientrmw";
  OperationId id;
  object::Operation op;
};

struct ClientRead {
  static constexpr std::string_view kType = "raft.clientread";
  OperationId id;
  object::Operation op;
};

struct ReadReply {
  static constexpr std::string_view kType = "raft.readreply";
  OperationId id;
  object::Response response;
};

}  // namespace msg

class RaftReplica : public sim::Process {
 public:
  using Callback = std::function<void(const object::Response&)>;
  enum class Role { kFollower, kCandidate, kLeader };

  RaftReplica(std::shared_ptr<const object::ObjectModel> model,
              RaftConfig config);

  // Client API, mirroring core::Replica. submit_rmw returns the operation's
  // id for harness-side durability accounting.
  OperationId submit_rmw(object::Operation op, Callback callback);
  // Networked-client entry point: appends an RMW under the client's session
  // id while leading, and ignores it otherwise (the client retries).
  // ids_in_log_ dedups retries whose entry already survives in the log.
  void submit_rmw_as(const OperationId& id, const object::Operation& op);
  // Reads take the replica-local path (lease or ReadIndex round under a
  // replica-own id), which already retries across leadership changes.
  void submit_read(object::Operation op, Callback callback);

  void on_start() override;
  // Crash recovery per the Raft paper's persistent-state rules: currentTerm,
  // votedFor and the log are synced to StableStorage before any vote or
  // successful AppendReply leaves this process (and before the leader counts
  // its own log as replicated); a restarted replica replays them and rejoins
  // as a follower.
  void on_restart() override;
  void on_message(const sim::Message& message) override;
  // What on_message dispatches to this replica's handlers, after the clock
  // guard has observed the message and the client gateway declined it.
  using Inbox = sim::Inbox<msg::RequestVote, msg::VoteReply,
                           msg::AppendEntries, msg::AppendReply,
                           msg::ClientRmw, msg::ClientRead, msg::ReadReply>;

  Role role() const { return role_; }
  bool is_leader() const { return role_ == Role::kLeader; }
  std::int64_t term() const { return term_; }
  std::int64_t commit_index() const { return commit_index_; }
  std::int64_t last_applied() const { return last_applied_; }
  std::size_t log_size() const { return log_.size(); }
  const std::vector<LogEntry>& log() const { return log_; }
  const object::ObjectState& applied_state() const { return *state_; }
  // Clock-health guard state, for the chaos checker's exposure-window
  // accounting and tests.
  const core::ClockSkewGuard& clock_guard() const { return clock_guard_; }

  // Replica-side endpoint for networked clients (src/client/): RMWs and
  // all reads are accepted only while leading; everything else is
  // redirected at leader_index(). Raft reads are never follower-local.
  static constexpr bool kAnyReplicaServes = false;
  client::ReplicaGateway<RaftReplica>& client_gateway() { return gateway_; }
  int leader_index() const {
    return is_leader() ? id().index() : leader_hint_.index();
  }

 private:
  struct PendingClientOp {
    object::Operation op;
    Callback callback;
    bool is_read = false;
    sim::EventHandle retry_timer;
  };

  // Leader-side pending ReadIndex reads.
  struct PendingLeaderRead {
    ProcessId from;
    OperationId id;
    object::Operation op;
    std::int64_t read_index = 0;
    std::int64_t probe_seq = 0;
    LocalTime enqueued;  // leader-local arrival, for the round span
  };

  // One on() overload per Inbox entry.
  friend Inbox;

  // --- Roles & elections ---
  void reset_election_timer();
  void start_election();
  void become_follower(std::int64_t term);
  void become_leader();
  void on(ProcessId from, const msg::RequestVote& request);
  void on(ProcessId from, const msg::VoteReply& reply);

  // --- Replication ---
  void heartbeat_tick();
  void send_append(ProcessId to);
  void on(ProcessId from, const msg::AppendEntries& append);
  void on(ProcessId from, const msg::AppendReply& reply);
  void advance_commit();
  void apply_committed();

  // --- Clients ---
  // --- Crash recovery ---
  void seed_op_sequence();
  void persist_hard_state();  // currentTerm + votedFor keyed records
  void append_log_entry(const LogEntry& entry);  // log_ + storage log
  void truncate_log_suffix(std::int64_t first_dropped);
  void recover_from_storage();

  void client_send(const OperationId& id);
  void on(ProcessId from, const msg::ClientRmw& rmw);
  void on(ProcessId from, const msg::ClientRead& read);
  void maybe_answer_reads();
  void answer_read(const PendingLeaderRead& read);
  void on(ProcessId from, const msg::ReadReply& reply);
  bool lease_valid();
  // Whether this leader's term has committed an entry (its no-op): until
  // then commit_index_ may lag what earlier leaders committed.
  bool term_committed() const { return term_at(commit_index_) == term_; }

  std::int64_t last_log_index() const {
    return static_cast<std::int64_t>(log_.size());
  }
  std::int64_t term_at(std::int64_t index) const {
    return index == 0 ? 0 : log_.at(static_cast<std::size_t>(index - 1)).term;
  }
  int majority() const { return cluster_size() / 2 + 1; }

  std::shared_ptr<const object::ObjectModel> model_;
  RaftConfig config_;

  // Persistent state.
  std::int64_t term_ = 0;
  std::optional<int> voted_for_;
  std::vector<LogEntry> log_;  // log_[i] holds index i+1
  // Ordered (not hashed): deterministic by construction (detlint rule D3).
  std::set<OperationId> ids_in_log_;
  // Highest log index covered by a *completed* sync. The pipelined write
  // path appends, starts the covering sync, and sends replication flights
  // immediately; advance_commit counts this replica's own log toward the
  // majority only up to here, so commits never rest on an in-flight fsync.
  std::int64_t synced_log_index_ = 0;

  // Volatile state.
  Role role_ = Role::kFollower;
  ProcessId leader_hint_;
  std::int64_t commit_index_ = 0;
  std::int64_t last_applied_ = 0;
  std::unique_ptr<object::ObjectState> state_;
  sim::EventHandle election_timer_;
  // Last time (local clock) this replica heard from a live leader of the
  // current term — or, on the leader itself, sent a heartbeat round. Votes
  // are disregarded within election_timeout_min of it (leader stickiness,
  // Raft thesis sec. 6.4.1): granting earlier could elect a new leader
  // inside the old leader's read lease.
  LocalTime last_leader_contact_ = LocalTime::min();

  // Leader state.
  std::vector<std::int64_t> next_index_;
  std::vector<std::int64_t> match_index_;
  std::set<int> votes_;
  sim::EventHandle heartbeat_timer_;
  std::int64_t probe_seq_ = 0;
  std::vector<std::int64_t> probe_acked_;
  std::vector<LocalTime> last_ack_local_;  // per follower, for lease reads
  std::list<PendingLeaderRead> leader_reads_;

  // Client state.
  std::int64_t op_seq_ = 0;
  std::map<OperationId, PendingClientOp> pending_ops_;

  core::ClockSkewGuard clock_guard_;

  // Observability (write-only from protocol code; docs/OBSERVABILITY.md).
  // start_election -> term won.
  metrics::Span span_election_{metrics().histogram("span.election_us")};
  // Read arrival -> answered.
  metrics::Histogram* h_readindex_round_ =
      &metrics().histogram("span.readindex.round_us");
  metrics::Counter* c_recoveries_ = &metrics().counter("recoveries");
  metrics::Counter* c_recovered_entries_ =
      &metrics().counter("recovery_log_replayed");
  metrics::Counter* c_clock_transitions_ =
      &metrics().counter("clock.suspect_transitions");
  metrics::Counter* c_reads_degraded_ = &metrics().counter("reads.degraded");
  metrics::Counter* c_reads_by_lease_ = &metrics().counter("reads.by_lease");
  metrics::Counter* c_became_leader_ = &metrics().counter("became_leader");
  // Restart -> first live-protocol sign.
  metrics::Span span_recovery_{metrics().histogram("span.recovery_us")};

  // Networked-client endpoint.
  client::ReplicaGateway<RaftReplica> gateway_{*this};
};

}  // namespace cht::raft
