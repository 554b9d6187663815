#include "raft/raft.h"

#include <algorithm>
#include <string>

#include "common/assert.h"
#include "sim/storage.h"

namespace cht::raft {

namespace {

// Stable-storage schema: keyed "term"/"vote" records plus one append-log
// record per log entry (index i+1 lives at storage log position i).
constexpr const char* kKeyTerm = "term";
constexpr const char* kKeyVote = "vote";

// A client operation is re-sent after this many heartbeat intervals (4
// delta) without an answer.
constexpr int kClientRetryHeartbeats = 4;

std::string encode_entry(const LogEntry& e) {
  return sim::encode_fields({std::to_string(e.term),
                             std::to_string(e.id.process.index()),
                             std::to_string(e.id.seq), e.op.kind, e.op.arg});
}

LogEntry decode_entry(const std::string& record) {
  const std::vector<std::string> fields = sim::decode_fields(record);
  CHT_ASSERT(fields.size() == 5, "malformed raft log record");
  return LogEntry{std::stoll(fields[0]),
                  OperationId{ProcessId(std::stoi(fields[1])),
                              std::stoll(fields[2])},
                  object::Operation{fields[3], fields[4]}};
}

}  // namespace

RaftReplica::RaftReplica(std::shared_ptr<const object::ObjectModel> model,
                         RaftConfig config)
    : model_(std::move(model)),
      config_(config),
      clock_guard_(config_.clock_guard) {}

void RaftReplica::on_start() {
  state_ = model_->make_initial_state();
  seed_op_sequence();
  next_index_.assign(cluster_size(), 1);
  match_index_.assign(cluster_size(), 0);
  probe_acked_.assign(cluster_size(), 0);
  last_ack_local_.assign(cluster_size(), LocalTime::min());
  reset_election_timer();
}

void RaftReplica::on_restart() {
  span_recovery_.begin(now_local().to_micros());
  c_recoveries_->inc();
  state_ = model_->make_initial_state();
  seed_op_sequence();
  next_index_.assign(cluster_size(), 1);
  match_index_.assign(cluster_size(), 0);
  probe_acked_.assign(cluster_size(), 0);
  last_ack_local_.assign(cluster_size(), LocalTime::min());
  recover_from_storage();
  reset_election_timer();
}

void RaftReplica::seed_op_sequence() {
  // Fresh incarnations must never reuse an OperationId (entries are
  // deduplicated by id); namespacing by incarnation avoids per-submit syncs.
  op_seq_ = static_cast<std::int64_t>(incarnation()) << 40;
}

void RaftReplica::persist_hard_state() {
  sim::StableStorage& st = storage();
  st.write(kKeyTerm, std::to_string(term_));
  if (voted_for_.has_value()) {
    st.write(kKeyVote, std::to_string(*voted_for_));
  } else {
    st.erase(kKeyVote);
  }
}

void RaftReplica::append_log_entry(const LogEntry& entry) {
  log_.push_back(entry);
  ids_in_log_.insert(entry.id);
  storage().append(encode_entry(entry));
}

void RaftReplica::truncate_log_suffix(std::int64_t first_dropped) {
  for (std::int64_t i = first_dropped; i <= last_log_index(); ++i) {
    ids_in_log_.erase(log_.at(static_cast<std::size_t>(i - 1)).id);
  }
  log_.resize(static_cast<std::size_t>(first_dropped - 1));
  storage().truncate_log(static_cast<std::size_t>(first_dropped - 1));
  if (synced_log_index_ > first_dropped - 1) {
    synced_log_index_ = first_dropped - 1;
  }
}

void RaftReplica::recover_from_storage() {
  sim::StableStorage& st = storage();
  if (const auto term = st.read(kKeyTerm)) term_ = std::stoll(*term);
  if (const auto vote = st.read(kKeyVote)) voted_for_ = std::stoi(*vote);
  for (const std::string& record : st.log()) {
    const LogEntry entry = decode_entry(record);
    log_.push_back(entry);
    ids_in_log_.insert(entry.id);
    c_recovered_entries_->inc();
  }
  // Whatever survived the crash is durable by definition.
  synced_log_index_ = last_log_index();
  // commit_index_/last_applied_ stay 0: they are volatile and re-learned
  // from the next leader's AppendEntries (entries re-apply from scratch
  // against the fresh state machine).
  trace_event("recovery", "term=", term_, " log=", log_.size());
}

// ===========================================================================
// Elections
// ===========================================================================

void RaftReplica::reset_election_timer() {
  election_timer_.cancel();
  const Duration timeout = Duration::micros(
      rng().next_in(config_.election_timeout_min.to_micros(),
                    config_.election_timeout_max.to_micros()));
  election_timer_ = schedule_after(timeout, [this] { start_election(); });
}

void RaftReplica::start_election() {
  if (role_ == Role::kLeader) return;
  // The election span restarts on every timeout, so it measures the round
  // that actually won, not the full leaderless stretch.
  span_election_.begin(now_local().to_micros());
  role_ = Role::kCandidate;
  ++term_;
  voted_for_ = id().index();
  votes_ = {id().index()};
  // The self-vote must be durable before anyone can learn of the candidacy:
  // the RequestVote broadcast waits for the covering sync to complete.
  persist_hard_state();
  const std::int64_t t = term_;
  request_sync([this, t] {
    if (role_ != Role::kCandidate || term_ != t) {
      return;  // a leader emerged (or a newer term) while the sync ran
    }
    broadcast(msg::RequestVote{term_, last_log_index(),
                               term_at(last_log_index())});
    reset_election_timer();
    if (static_cast<int>(votes_.size()) >= majority()) become_leader();  // n == 1
  });
}

void RaftReplica::become_follower(std::int64_t term) {
  const bool was_leader = role_ == Role::kLeader;
  if (term > term_) {
    term_ = term;
    voted_for_.reset();
    // Written now, durable at the next sync (a granted vote or successful
    // append); losing an unsynced term bump only re-learns the term.
    persist_hard_state();
  }
  role_ = Role::kFollower;
  span_election_.cancel();
  if (was_leader) {
    heartbeat_timer_.cancel();
    leader_reads_.clear();  // requesters retry against the new leader
  }
  reset_election_timer();
}

void RaftReplica::become_leader() {
  c_became_leader_->inc();
  end_span(span_election_, "election");
  span_recovery_.cancel();  // recovered straight into leading
  role_ = Role::kLeader;
  leader_hint_ = id();
  next_index_.assign(cluster_size(), last_log_index() + 1);
  match_index_.assign(cluster_size(), 0);
  probe_acked_.assign(cluster_size(), 0);
  last_ack_local_.assign(cluster_size(), LocalTime::min());
  election_timer_.cancel();
  // A new leader commits a no-op of its own term: required so commit_index
  // can advance (only current-term entries commit by counting) and so
  // ReadIndex reads observe every previously committed entry.
  const OperationId noop_id{id(), ++op_seq_};
  append_log_entry(LogEntry{term_, noop_id, object::no_op()});
  // Pipelined: the heartbeats below advertise the no-op while its covering
  // sync is still in flight; our own log counts toward commit only up to
  // synced_log_index_, which advances when the sync completes.
  const std::int64_t idx = last_log_index();
  const std::int64_t t = term_;
  request_sync([this, idx, t] {
    if (synced_log_index_ < idx) synced_log_index_ = idx;
    if (role_ == Role::kLeader && term_ == t) advance_commit();
  });
  heartbeat_tick();
}

void RaftReplica::on(ProcessId from, const msg::RequestVote& request) {
  // Leader stickiness: while we recently heard from (or were) a live leader,
  // disregard the request entirely — not even a term bump. Required for
  // lease-read safety and prevents a rejoining partitioned node with an
  // inflated term from disrupting a healthy leader.
  if (last_leader_contact_ != LocalTime::min() &&
      now_local() < last_leader_contact_ + config_.election_timeout_min) {
    send(from, msg::VoteReply{term_, false});
    return;
  }
  if (request.term > term_) become_follower(request.term);
  bool granted = false;
  if (request.term == term_ &&
      (!voted_for_.has_value() || *voted_for_ == from.index())) {
    // Election restriction: grant only to candidates whose log is at least
    // as up-to-date as ours.
    const std::int64_t our_last_term = term_at(last_log_index());
    const bool up_to_date =
        request.last_log_term > our_last_term ||
        (request.last_log_term == our_last_term &&
         request.last_log_index >= last_log_index());
    if (up_to_date) {
      voted_for_ = from.index();
      // The vote must survive a crash: a recovered replica that forgot it
      // could vote twice in one term and elect two leaders. The grant leaves
      // only after the covering sync completes (vote syncs pending in one
      // group-commit window coalesce and their replies burst together).
      persist_hard_state();
      reset_election_timer();
      const std::int64_t t = term_;
      request_sync([this, from, t] {
        send(from, msg::VoteReply{t, true});
      });
      return;
    }
  }
  send(from, msg::VoteReply{term_, granted});
}

void RaftReplica::on(ProcessId from, const msg::VoteReply& reply) {
  if (reply.term > term_) {
    become_follower(reply.term);
    return;
  }
  if (role_ != Role::kCandidate || reply.term != term_ || !reply.granted) {
    return;
  }
  votes_.insert(from.index());
  if (static_cast<int>(votes_.size()) >= majority()) become_leader();
}

// ===========================================================================
// Replication
// ===========================================================================

void RaftReplica::heartbeat_tick() {
  if (role_ != Role::kLeader) return;
  last_leader_contact_ = now_local();  // we are the live leader
  ++probe_seq_;
  for (int i = 0; i < cluster_size(); ++i) {
    if (i == id().index()) continue;
    send_append(ProcessId(i));
  }
  heartbeat_timer_ =
      schedule_after(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void RaftReplica::send_append(ProcessId to) {
  const std::int64_t next = next_index_.at(to.index());
  const std::int64_t prev = next - 1;
  msg::AppendEntries append{term_,         prev,       term_at(prev), {},
                            commit_index_, probe_seq_, now_local()};
  for (std::int64_t i = next; i <= last_log_index(); ++i) {
    append.entries.push_back(log_.at(static_cast<std::size_t>(i - 1)));
  }
  send(to, append);
}

void RaftReplica::on(ProcessId from, const msg::AppendEntries& append) {
  if (append.term > term_) become_follower(append.term);
  if (append.term < term_) {
    send(from, msg::AppendReply{term_, false, last_log_index(),
                                append.probe_seq, append.lease_stamp});
    return;
  }
  // append.term == term_: `from` is the legitimate leader of this term.
  if (role_ != Role::kFollower) become_follower(append.term);
  leader_hint_ = from;
  last_leader_contact_ = now_local();
  // First leader contact after a restart closes the recovery span.
  end_span(span_recovery_, "recovery");
  reset_election_timer();

  if (append.prev_index > last_log_index() ||
      term_at(append.prev_index) != append.prev_term) {
    send(from, msg::AppendReply{term_, false, last_log_index(),
                                append.probe_seq, append.lease_stamp});
    return;
  }
  // Append, truncating conflicting suffixes.
  std::int64_t index = append.prev_index;
  bool log_changed = false;
  for (const LogEntry& entry : append.entries) {
    ++index;
    if (index <= last_log_index()) {
      if (term_at(index) == entry.term) continue;  // already have it
      // Conflict: drop our suffix from here on.
      truncate_log_suffix(index);
    }
    append_log_entry(entry);
    log_changed = true;
  }
  // Durability before the success reply: the leader counts this replica's
  // match_index toward commit on its strength. One sync covers the whole
  // flight's appends; under group commit, flights (or other promise work)
  // landing while that sync is in flight coalesce into the next one and
  // their replies leave as one burst. Heartbeats that changed nothing
  // re-claim an already-durable prefix and need no sync.
  const std::int64_t appended_upto =
      append.prev_index + static_cast<std::int64_t>(append.entries.size());
  const msg::AppendReply reply{term_, true, appended_upto, append.probe_seq,
                               append.lease_stamp};
  const std::int64_t leader_commit = append.leader_commit;
  auto complete = [this, from, reply, leader_commit] {
    if (leader_commit > commit_index_) {
      commit_index_ = std::min(leader_commit, last_log_index());
      apply_committed();
    }
    send(from, reply);
  };
  if (log_changed) {
    request_sync([this, appended_upto, complete] {
      if (synced_log_index_ < appended_upto) synced_log_index_ = appended_upto;
      complete();
    });
  } else {
    complete();
  }
}

void RaftReplica::on(ProcessId from, const msg::AppendReply& reply) {
  if (reply.term > term_) {
    become_follower(reply.term);
    return;
  }
  if (role_ != Role::kLeader || reply.term != term_) return;
  const int f = from.index();
  probe_acked_[f] = std::max(probe_acked_[f], reply.probe_seq);
  // The echoed stamp is when we *sent* the round this follower is acking —
  // the latest provable lower bound on its election-timer reset.
  last_ack_local_[f] = std::max(last_ack_local_[f], reply.lease_stamp);
  if (reply.success) {
    match_index_[f] = std::max(match_index_[f], reply.match_index);
    next_index_[f] = match_index_[f] + 1;
    advance_commit();
  } else {
    // Fast back-off: jump straight past the follower's log end.
    next_index_[f] = std::min(next_index_[f] - 1, reply.match_index + 1);
    if (next_index_[f] < 1) next_index_[f] = 1;
    send_append(from);
  }
  maybe_answer_reads();
}

void RaftReplica::advance_commit() {
  for (std::int64_t n = last_log_index(); n > commit_index_; --n) {
    if (term_at(n) != term_) break;  // only current-term entries by counting
    // Self counts only up to the completed-sync watermark: with the
    // pipelined write path our log may run ahead of the covering fsync.
    int replicas = synced_log_index_ >= n ? 1 : 0;
    for (int i = 0; i < cluster_size(); ++i) {
      if (i != id().index() && match_index_[i] >= n) ++replicas;
    }
    if (replicas >= majority()) {
      commit_index_ = n;
      apply_committed();
      break;
    }
  }
}

void RaftReplica::apply_committed() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    const LogEntry& entry = log_.at(static_cast<std::size_t>(last_applied_ - 1));
    const object::Response response = model_->apply(*state_, entry.op);
    if (entry.id.process == id()) {
      auto node = pending_ops_.extract(entry.id);
      if (!node.empty()) {
        node.mapped().retry_timer.cancel();
        if (node.mapped().callback) node.mapped().callback(response);
      }
    }
    // Every applied entry feeds the client session table in log order (also
    // during recovery replay, which rebuilds it).
    gateway_.on_applied(entry.id, response);
  }
  maybe_answer_reads();
}

// ===========================================================================
// Clients
// ===========================================================================

OperationId RaftReplica::submit_rmw(object::Operation op, Callback callback) {
  CHT_ASSERT(!model_->is_read(op), "submit_rmw called with a read");
  const OperationId id{this->id(), ++op_seq_};
  pending_ops_.try_emplace(
      id, PendingClientOp{std::move(op), std::move(callback), false,
                          sim::EventHandle()});
  client_send(id);
  return id;
}

void RaftReplica::submit_rmw_as(const OperationId& id,
                                const object::Operation& op) {
  on(this->id(), msg::ClientRmw{id, op});
}

void RaftReplica::submit_read(object::Operation op, Callback callback) {
  CHT_ASSERT(model_->is_read(op), "submit_read called with a RMW");
  const OperationId id{this->id(), ++op_seq_};
  pending_ops_.try_emplace(
      id, PendingClientOp{std::move(op), std::move(callback), true,
                          sim::EventHandle()});
  client_send(id);
}

void RaftReplica::client_send(const OperationId& id) {
  auto it = pending_ops_.find(id);
  if (it == pending_ops_.end()) return;
  ProcessId target = role_ == Role::kLeader ? this->id() : leader_hint_;
  if (!target.valid()) {
    // No known leader yet: try a deterministic guess; retries rotate.
    target = ProcessId(static_cast<int>(rng().next_below(
        static_cast<std::uint64_t>(cluster_size()))));
  }
  if (it->second.is_read) {
    const msg::ClientRead request{id, it->second.op};
    if (target == this->id()) {
      on(this->id(), request);
      // A lease read at the leader completes synchronously and erases the
      // pending entry; the iterator is dead then.
      it = pending_ops_.find(id);
      if (it == pending_ops_.end()) return;
    } else {
      send(target, request);
    }
  } else {
    const msg::ClientRmw request{id, it->second.op};
    if (target == this->id()) {
      on(this->id(), request);
      it = pending_ops_.find(id);
      if (it == pending_ops_.end()) return;
    } else {
      send(target, request);
    }
  }
  it->second.retry_timer =
      schedule_after(kClientRetryHeartbeats * config_.heartbeat_interval,
                     [this, id] { client_send(id); });
}

void RaftReplica::on(ProcessId /*from*/, const msg::ClientRmw& rmw) {
  if (role_ != Role::kLeader) return;  // submitter retries
  if (ids_in_log_.contains(rmw.id)) return;  // duplicate retry
  append_log_entry(LogEntry{term_, rmw.id, rmw.op});
  // Pipelined: the replication flights below leave while our own covering
  // sync is in flight; our match counts toward the majority only once it
  // completes (synced_log_index_), so a commit never rests on an unsynced
  // leader log.
  const std::int64_t idx = last_log_index();
  const std::int64_t t = term_;
  request_sync([this, idx, t] {
    if (synced_log_index_ < idx) synced_log_index_ = idx;
    if (role_ == Role::kLeader && term_ == t) advance_commit();
  });
  for (int i = 0; i < cluster_size(); ++i) {
    if (i != id().index()) send_append(ProcessId(i));
  }
}

void RaftReplica::on(ProcessId from, const msg::ClientRead& read) {
  if (role_ != Role::kLeader) return;  // submitter retries
  if (config_.read_mode == ReadMode::kLeaderLease && clock_guard_.suspect()) {
    // Degraded: lease validity is clock arithmetic this replica no longer
    // trusts; fall through to the clock-free ReadIndex round below.
    c_reads_degraded_->inc();
  } else if (config_.read_mode == ReadMode::kLeaderLease &&
             term_committed() && lease_valid() &&
             last_applied_ >= commit_index_) {
    c_reads_by_lease_->inc();
    const object::Response response = model_->apply(*state_, read.op);
    const msg::ReadReply reply{read.id, response};
    if (from == id()) {
      on(from, reply);
    } else {
      send(from, reply);
    }
    return;
  }
  // ReadIndex: record the commit index and confirm leadership with a fresh
  // heartbeat round before answering. A leader whose term has not committed
  // an entry yet (its no-op) may lag entries its predecessors committed, so
  // the read also waits for that commit (Raft thesis sec. 6.4, step 1).
  ++probe_seq_;
  leader_reads_.push_back(PendingLeaderRead{from, read.id, read.op,
                                            commit_index_, probe_seq_,
                                            now_local()});
  for (int i = 0; i < cluster_size(); ++i) {
    if (i != id().index()) send_append(ProcessId(i));
  }
  maybe_answer_reads();  // n == 1: no confirmation needed
}

bool RaftReplica::lease_valid() {
  // The leader holds a read lease until (send time of the quorum-th most
  // recently acked heartbeat round) + election_timeout_min. Followers
  // disregard votes within election_timeout_min of leader contact, so every
  // electing majority intersects the acking quorum in a replica that cannot
  // vote before this lease expires (local clocks advance at rate 1, so
  // cross-clock duration arithmetic is exact).
  std::vector<LocalTime> acks;
  for (int i = 0; i < cluster_size(); ++i) {
    if (i != id().index()) acks.push_back(last_ack_local_[i]);
  }
  std::sort(acks.begin(), acks.end(), std::greater<>());
  const int needed = majority() - 1;  // besides ourselves
  if (needed == 0) return true;
  if (static_cast<int>(acks.size()) < needed) return false;
  const LocalTime quorum_time = acks[static_cast<std::size_t>(needed - 1)];
  if (quorum_time == LocalTime::min()) return false;
  return now_local() < quorum_time + config_.election_timeout_min;
}

void RaftReplica::maybe_answer_reads() {
  if (role_ != Role::kLeader) return;
  for (auto it = leader_reads_.begin(); it != leader_reads_.end();) {
    int confirmations = 1;  // self
    for (int i = 0; i < cluster_size(); ++i) {
      if (i != id().index() && probe_acked_[i] >= it->probe_seq) {
        ++confirmations;
      }
    }
    if (confirmations >= majority() && term_committed() &&
        last_applied_ >= std::max(it->read_index, commit_index_)) {
      answer_read(*it);
      it = leader_reads_.erase(it);
    } else {
      ++it;
    }
  }
}

void RaftReplica::answer_read(const PendingLeaderRead& read) {
  const std::int64_t round_us = (now_local() - read.enqueued).to_micros();
  h_readindex_round_->record(round_us);
  trace_event("span.readindex.round", "us=", round_us);
  const object::Response response = model_->apply(*state_, read.op);
  const msg::ReadReply reply{read.id, response};
  if (read.from == id()) {
    on(read.from, reply);
  } else {
    send(read.from, reply);
  }
}

// ===========================================================================
// Dispatch
// ===========================================================================

void RaftReplica::on_message(const sim::Message& message) {
  if (clock_guard_.observe(message.sent_local, now_local(), now_real())) {
    c_clock_transitions_->inc();
    trace_event("clock.guard",
                clock_guard_.suspect() ? "suspect" : "requalified");
  }
  if (gateway_.handle(message)) return;
  if (!Inbox::dispatch(message, *this)) {
    CHT_UNREACHABLE("unknown message type for raft replica");
  }
}

void RaftReplica::on(ProcessId, const msg::ReadReply& reply) {
  auto node = pending_ops_.extract(reply.id);
  if (node.empty()) return;
  node.mapped().retry_timer.cancel();
  if (node.mapped().callback) node.mapped().callback(reply.response);
}

}  // namespace cht::raft
