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
#include <vector>

#include "client/gateway.h"
#include "common/time.h"
#include "common/types.h"
#include "core/clock_guard.h"
#include "metrics/registry.h"
#include "metrics/span.h"
#include "object/object.h"
#include "sim/process.h"

namespace cht::raft {

enum class ReadMode { kReadIndex, kLeaderLease };

struct RaftConfig {
  Duration heartbeat_interval = Duration::millis(10);
  Duration election_timeout_min = Duration::millis(100);
  Duration election_timeout_max = Duration::millis(200);
  Duration client_retry = Duration::millis(40);
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
    c.client_retry = 4 * delta;
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

inline constexpr const char* kRequestVote = "raft.requestvote";
inline constexpr const char* kVoteReply = "raft.votereply";
inline constexpr const char* kAppendEntries = "raft.appendentries";
inline constexpr const char* kAppendReply = "raft.appendreply";
inline constexpr const char* kClientRmw = "raft.clientrmw";
inline constexpr const char* kClientRead = "raft.clientread";
inline constexpr const char* kReadReply = "raft.readreply";

struct RequestVote {
  std::int64_t term = 0;
  std::int64_t last_log_index = 0;
  std::int64_t last_log_term = 0;
};

struct VoteReply {
  std::int64_t term = 0;
  bool granted = false;
};

struct AppendEntries {
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
  std::int64_t term = 0;
  bool success = false;
  std::int64_t match_index = 0;  // on success; on failure, follower's log length
  std::int64_t probe_seq = 0;
  LocalTime lease_stamp;  // echoed from the AppendEntries being answered
};

struct ClientRmw {
  OperationId id;
  object::Operation op;
};

struct ClientRead {
  OperationId id;
  object::Operation op;
};

struct ReadReply {
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
  void submit_read(object::Operation op, Callback callback);

  void on_start() override;
  // Crash recovery per the Raft paper's persistent-state rules: currentTerm,
  // votedFor and the log are synced to StableStorage before any vote or
  // successful AppendReply leaves this process (and before the leader counts
  // its own log as replicated); a restarted replica replays them and rejoins
  // as a follower.
  void on_restart() override;
  void on_message(const sim::Message& message) override;

  Role role() const { return role_; }
  std::int64_t term() const { return term_; }
  std::int64_t commit_index() const { return commit_index_; }
  std::int64_t last_applied() const { return last_applied_; }
  std::size_t log_size() const { return log_.size(); }
  const std::vector<LogEntry>& log() const { return log_; }
  ProcessId leader_hint() const { return leader_hint_; }
  const object::ObjectState& applied_state() const { return *state_; }
  // Clock-health guard state, for the chaos checker's exposure-window
  // accounting and tests.
  const core::ClockSkewGuard& clock_guard() const { return clock_guard_; }

  // Observability: span histograms for the election round and the ReadIndex
  // confirmation round (see docs/OBSERVABILITY.md).
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  // Replica-side endpoint for networked clients (src/client/): RMWs and
  // leader_only reads are accepted only while leading; everything else is
  // redirected at leader_hint().
  client::ReplicaGateway& client_gateway() { return gateway_; }

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

  // --- Roles & elections ---
  void reset_election_timer();
  void start_election();
  void become_follower(std::int64_t term);
  void become_leader();
  void on_request_vote(ProcessId from, const msg::RequestVote& request);
  void on_vote_reply(ProcessId from, const msg::VoteReply& reply);

  // --- Replication ---
  void heartbeat_tick();
  void send_append(ProcessId to);
  void on_append_entries(ProcessId from, const msg::AppendEntries& append);
  void on_append_reply(ProcessId from, const msg::AppendReply& reply);
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
  void on_client_rmw(ProcessId from, const msg::ClientRmw& rmw);
  void on_client_read(ProcessId from, const msg::ClientRead& read);
  void maybe_answer_reads();
  void answer_read(const PendingLeaderRead& read);
  void on_message_read_reply(const msg::ReadReply& reply);
  bool lease_valid();

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

  // Observability (write-only from protocol code).
  metrics::Registry metrics_;
  metrics::Span span_election_;         // start_election -> term won
  metrics::Histogram* h_readindex_round_;  // read arrival -> answered
  metrics::Counter* c_recoveries_;
  metrics::Counter* c_recovered_entries_;
  metrics::Counter* c_clock_transitions_;
  metrics::Counter* c_reads_degraded_;
  metrics::Counter* c_reads_by_lease_;
  metrics::Counter* c_became_leader_;
  metrics::Span span_recovery_;        // restart -> first live-protocol sign

  // Networked-client endpoint (declared after metrics_: ctor order).
  client::ReplicaGateway gateway_;
};

}  // namespace cht::raft
