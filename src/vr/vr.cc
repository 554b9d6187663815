#include "vr/vr.h"

#include <algorithm>

#include "common/assert.h"

namespace cht::vr {

namespace {
// A client operation is re-sent after this many heartbeat intervals (4
// delta) without an answer.
constexpr int kClientRetryHeartbeats = 4;
}  // namespace

VrReplica::VrReplica(std::shared_ptr<const object::ObjectModel> model,
                     VrConfig config)
    : model_(std::move(model)), config_(config) {}

void VrReplica::on_start() {
  state_ = model_->make_initial_state();
  seed_op_sequence();
  acked_op_.assign(cluster_size(), 0);
  if (is_primary()) {
    c_became_leader_->inc();
    heartbeat_tick();
  } else {
    reset_view_timer();
  }
}

void VrReplica::on_restart() {
  span_recovery_.begin(now_local().to_micros());
  c_recoveries_->inc();
  state_ = model_->make_initial_state();
  seed_op_sequence();
  acked_op_.assign(cluster_size(), 0);
  status_ = Status::kRecovering;
  // The nonce distinguishes this recovery attempt from any earlier one; a
  // stale response cannot satisfy it. Drawn from the shared simulation
  // stream — safe, since restarts only exist on schedules that draw it.
  recovery_nonce_ = rng().next_u64();
  recovery_tick();
}

void VrReplica::seed_op_sequence() {
  // Fresh incarnations must never reuse an OperationId (requests are
  // deduplicated by id); namespacing by incarnation avoids collisions
  // without any stable storage — fitting, as VR keeps none.
  op_seq_ = static_cast<std::int64_t>(incarnation()) << 40;
}

void VrReplica::recovery_tick() {
  if (status_ != Status::kRecovering) return;
  broadcast(msg::Recovery{recovery_nonce_});
  recovery_timer_ =
      schedule_after(config_.view_change_timeout, [this] { recovery_tick(); });
}

void VrReplica::on(ProcessId from, const msg::Recovery& m) {
  // Only normal-status replicas may answer (sec. 4.3): a view-changing or
  // recovering replica's view count could go backwards.
  if (status_ != Status::kNormal) return;
  msg::RecoveryResponse response{m.nonce, view_, false, {}, 0, 0};
  if (is_primary()) {
    response.is_primary = true;
    response.log = log_;
    response.op_number = op_number();
    response.commit_number = commit_number_;
  }
  send(from, response);
}

void VrReplica::on(ProcessId from, const msg::RecoveryResponse& m) {
  if (status_ != Status::kRecovering || m.nonce != recovery_nonce_) return;
  recovery_responses_[from.index()] = m;
  maybe_finish_recovery();
}

void VrReplica::maybe_finish_recovery() {
  if (static_cast<int>(recovery_responses_.size()) < majority()) return;
  // Among the responses, find the newest view and require the response of
  // that view's primary (with its log). Without it we keep waiting: either
  // the primary's response is still in flight, or the view has moved on and
  // retries will collect responses for the newer view.
  std::int64_t max_view = 0;
  for (const auto& [sender, response] : recovery_responses_) {
    max_view = std::max(max_view, response.view);
  }
  const ProcessId primary = primary_of(max_view);
  auto it = recovery_responses_.find(primary.index());
  if (it == recovery_responses_.end() || it->second.view != max_view ||
      !it->second.is_primary) {
    return;
  }
  const msg::RecoveryResponse& from_primary = it->second;
  view_ = max_view;
  log_ = from_primary.log;
  ids_in_log_.clear();
  for (const auto& entry : log_) ids_in_log_.insert(entry.id);
  commit_number_ = 0;
  applied_ = 0;
  advance_commit(from_primary.commit_number);
  c_recovered_entries_->inc(static_cast<std::int64_t>(log_.size()));
  status_ = Status::kNormal;
  last_normal_view_ = view_;
  recovery_timer_.cancel();
  recovery_responses_.clear();
  end_span(span_recovery_, "recovery");
  trace_event("recovery", "view=", view_, " log=", log_.size());
  // Ack our adopted prefix to the primary and fall back into the follower
  // rhythm (the recovered replica is never the primary of max_view: a view
  // whose primary crashed moves on before its primary can be told about it).
  send(primary, msg::PrepareOk{view_, op_number()});
  reset_view_timer();
}

// ===========================================================================
// Normal operation
// ===========================================================================

void VrReplica::on(ProcessId /*from*/, const msg::Request& request) {
  if (!is_primary()) return;  // client retries toward the current primary
  if (ids_in_log_.contains(request.id)) return;  // duplicate retry
  log_.push_back(VrLogEntry{request.id, request.op});
  ids_in_log_.insert(request.id);
  for (int i = 0; i < cluster_size(); ++i) {
    if (i != id().index()) send_prepare_to(ProcessId(i));
  }
  if (cluster_size() == 1) advance_commit(op_number());
}

void VrReplica::send_prepare_to(ProcessId to) {
  msg::Prepare prepare{view_, op_number(), {}, commit_number_};
  const std::int64_t from_index = acked_op_.at(to.index());
  for (std::int64_t i = from_index + 1; i <= op_number(); ++i) {
    prepare.entries.push_back(log_.at(static_cast<std::size_t>(i - 1)));
  }
  send(to, prepare);
}

void VrReplica::on(ProcessId from, const msg::Prepare& prepare) {
  if (prepare.view < view_) return;
  if (prepare.view > view_ || status_ != Status::kNormal) {
    // We are behind: transfer state from the sender (the newer primary).
    // Entries beyond our commit point may conflict with the newer view's log
    // (e.g. we were an isolated primary still appending); drop them before
    // asking for the suffix (VR Revisited sec. 5.2).
    truncate_uncommitted_tail();
    send(from, msg::GetState{prepare.view, op_number()});
    return;
  }
  reset_view_timer();
  // Append the part of the suffix we miss. Within a view the primary assigns
  // op-numbers sequentially, so logs never diverge -- only lag.
  const std::int64_t first =
      prepare.op_number - static_cast<std::int64_t>(prepare.entries.size()) + 1;
  if (first > op_number() + 1) {
    send(from, msg::GetState{view_, op_number()});
    return;
  }
  for (std::int64_t i = first; i <= prepare.op_number; ++i) {
    if (i <= op_number()) continue;  // already have it
    const auto& entry =
        prepare.entries.at(static_cast<std::size_t>(i - first));
    log_.push_back(entry);
    ids_in_log_.insert(entry.id);
  }
  send(from, msg::PrepareOk{view_, op_number()});
  advance_commit(std::min(prepare.commit_number, op_number()));
}

void VrReplica::on(ProcessId from, const msg::PrepareOk& ok) {
  if (ok.view != view_ || !is_primary()) return;
  acked_op_[from.index()] = std::max(acked_op_[from.index()], ok.op_number);
  for (std::int64_t n = op_number(); n > commit_number_; --n) {
    int replicas = 1;  // self
    for (int i = 0; i < cluster_size(); ++i) {
      if (i != id().index() && acked_op_[i] >= n) ++replicas;
    }
    if (replicas >= majority()) {
      advance_commit(n);
      broadcast(msg::Commit{view_, commit_number_});
      break;
    }
  }
}

void VrReplica::on(ProcessId from, const msg::Commit& commit) {
  if (commit.view < view_) return;
  if (commit.view > view_ || status_ != Status::kNormal) {
    truncate_uncommitted_tail();
    send(from, msg::GetState{commit.view, op_number()});
    return;
  }
  reset_view_timer();
  advance_commit(std::min(commit.commit_number, op_number()));
}

void VrReplica::advance_commit(std::int64_t to) {
  if (to > commit_number_) {
    commit_number_ = to;
    apply_committed();
  }
}

void VrReplica::apply_committed() {
  while (applied_ < commit_number_) {
    ++applied_;
    const VrLogEntry& entry = log_.at(static_cast<std::size_t>(applied_ - 1));
    const object::Response response = model_->apply(*state_, entry.op);
    if (entry.id.process == id()) {
      auto node = pending_ops_.extract(entry.id);
      if (!node.empty()) {
        node.mapped().retry_timer.cancel();
        if (node.mapped().callback) node.mapped().callback(response);
      }
    }
    // Every applied entry feeds the client session table in log order (also
    // after a view change or nonce recovery installs a longer log).
    gateway_.on_applied(entry.id, response);
  }
}

void VrReplica::heartbeat_tick() {
  if (!is_primary()) return;
  broadcast(msg::Commit{view_, commit_number_});
  // Nudge lagging replicas with their missing suffix.
  for (int i = 0; i < cluster_size(); ++i) {
    if (i != id().index() && acked_op_[i] < op_number()) {
      send_prepare_to(ProcessId(i));
    }
  }
  heartbeat_timer_ =
      schedule_after(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

// ===========================================================================
// View changes
// ===========================================================================

void VrReplica::reset_view_timer() {
  view_timer_.cancel();
  if (is_primary()) return;
  // Jitter to avoid lock-step view changes.
  const Duration timeout = Duration::micros(
      rng().next_in(config_.view_change_timeout.to_micros(),
                    config_.view_change_timeout.to_micros() * 3 / 2));
  view_timer_ = schedule_after(timeout, [this] { suspect_primary(); });
}

void VrReplica::suspect_primary() { begin_view_change(view_ + 1); }

void VrReplica::begin_view_change(std::int64_t new_view) {
  CHT_ASSERT(new_view > view_ || (new_view == view_ && status_ ==
                                      Status::kViewChange),
             "view change must move forward");
  if (new_view > view_) {
    view_ = new_view;
    svc_votes_.clear();
    dvc_received_.clear();
    dvc_sent_ = false;
  }
  // Span the whole leaderless stretch: successive ineffective views extend
  // one span rather than restarting it.
  if (!span_viewchange_.active()) {
    span_viewchange_.begin(now_local().to_micros());
  }
  status_ = Status::kViewChange;
  heartbeat_timer_.cancel();
  svc_votes_.insert(id().index());
  broadcast(msg::StartViewChange{view_});
  // If this view also stalls (e.g. its static next-in-line primary is
  // partitioned away), move on to the next one -- the "succession of
  // ineffective views" the paper points out.
  view_timer_.cancel();
  const Duration timeout = Duration::micros(
      rng().next_in(config_.view_change_timeout.to_micros(),
                    config_.view_change_timeout.to_micros() * 3 / 2));
  view_timer_ =
      schedule_after(timeout, [this] { begin_view_change(view_ + 1); });
  maybe_send_do_view_change();
}

void VrReplica::on(ProcessId from, const msg::StartViewChange& m) {
  if (m.view < view_) return;
  // Seeing evidence of a newer view change: join it.
  if (m.view > view_) begin_view_change(m.view);
  if (m.view == view_ && status_ == Status::kViewChange) {
    svc_votes_.insert(from.index());
    maybe_send_do_view_change();
  }
}

void VrReplica::maybe_send_do_view_change() {
  // Once a majority agrees the view changed, each participant sends its log
  // to the new (statically determined) primary, exactly once per view.
  if (status_ != Status::kViewChange || dvc_sent_ ||
      static_cast<int>(svc_votes_.size()) < majority()) {
    return;
  }
  dvc_sent_ = true;
  const msg::DoViewChange dvc{view_, log_, last_normal_view_, op_number(),
                              commit_number_};
  const ProcessId primary = primary_of(view_);
  if (primary == id()) {
    on(id(), dvc);
  } else {
    send(primary, dvc);
  }
}

void VrReplica::on(ProcessId from, const msg::DoViewChange& m) {
  if (m.view < view_) return;
  if (m.view > view_) begin_view_change(m.view);
  if (primary_of(view_) != id() || status_ != Status::kViewChange) return;
  dvc_received_[from.index()] = m;
  maybe_become_primary();
}

void VrReplica::maybe_become_primary() {
  if (static_cast<int>(dvc_received_.size()) < majority()) return;
  // Select the log from the DoViewChange with the largest
  // (last_normal_view, op_number).
  const msg::DoViewChange* best = nullptr;
  std::int64_t max_commit = 0;
  for (const auto& [sender, dvc] : dvc_received_) {
    max_commit = std::max(max_commit, dvc.commit_number);
    if (best == nullptr ||
        std::pair(dvc.last_normal_view, dvc.op_number) >
            std::pair(best->last_normal_view, best->op_number)) {
      best = &dvc;
    }
  }
  log_ = best->log;
  ids_in_log_.clear();
  for (const auto& entry : log_) ids_in_log_.insert(entry.id);
  status_ = Status::kNormal;
  end_span(span_viewchange_, "viewchange");
  last_normal_view_ = view_;
  acked_op_.assign(cluster_size(), 0);
  view_timer_.cancel();
  c_became_leader_->inc();
  broadcast(msg::StartView{view_, log_, op_number(), max_commit});
  advance_commit(std::max(commit_number_, max_commit));
  dvc_received_.clear();
  dvc_sent_ = false;
  heartbeat_tick();
}

void VrReplica::on(ProcessId from, const msg::StartView& m) {
  // Already normal in this view (e.g. joined it through GetState/NewState):
  // the primary's log from the view's start may be shorter than ours by now.
  if (m.view < view_ || (m.view == view_ && status_ == Status::kNormal)) {
    return;
  }
  view_ = m.view;
  log_ = m.log;
  ids_in_log_.clear();
  for (const auto& entry : log_) ids_in_log_.insert(entry.id);
  status_ = Status::kNormal;
  end_span(span_viewchange_, "viewchange");
  last_normal_view_ = view_;
  svc_votes_.clear();
  dvc_received_.clear();
  dvc_sent_ = false;
  // The new log may be shorter than what we applied? Impossible: the chosen
  // log extends every committed prefix (majority intersection), and we only
  // apply committed entries.
  CHT_ASSERT(static_cast<std::int64_t>(log_.size()) >= applied_,
             "StartView log shorter than applied prefix");
  send(from, msg::PrepareOk{view_, op_number()});
  advance_commit(std::min(m.commit_number, op_number()));
  reset_view_timer();
}

// ===========================================================================
// State transfer
// ===========================================================================

void VrReplica::on(ProcessId from, const msg::GetState& m) {
  if (status_ != Status::kNormal || m.view > view_) return;
  msg::NewState reply{view_, {}, op_number(), commit_number_};
  for (std::int64_t i = m.op_number + 1; i <= op_number(); ++i) {
    reply.suffix.push_back(log_.at(static_cast<std::size_t>(i - 1)));
  }
  send(from, reply);
}

void VrReplica::on(ProcessId, const msg::NewState& m) {
  if (m.view < view_) return;
  if (m.view > view_ || status_ != Status::kNormal) {
    // Crossing into a newer view: our uncommitted tail may hold different
    // operations at the op-numbers the new view committed. Only the committed
    // prefix is guaranteed to be a prefix of the sender's log.
    truncate_uncommitted_tail();
    view_ = m.view;
    status_ = Status::kNormal;
    last_normal_view_ = view_;
  }
  const std::int64_t first =
      m.op_number - static_cast<std::int64_t>(m.suffix.size()) + 1;
  if (first > op_number() + 1) return;  // still a gap; retries will fill
  for (std::int64_t i = first; i <= m.op_number; ++i) {
    if (i <= op_number()) continue;
    const auto& entry = m.suffix.at(static_cast<std::size_t>(i - first));
    log_.push_back(entry);
    ids_in_log_.insert(entry.id);
  }
  advance_commit(std::min(m.commit_number, op_number()));
  reset_view_timer();
}

void VrReplica::truncate_uncommitted_tail() {
  while (static_cast<std::int64_t>(log_.size()) > commit_number_) {
    ids_in_log_.erase(log_.back().id);
    log_.pop_back();
  }
}

// ===========================================================================
// Clients
// ===========================================================================

OperationId VrReplica::submit_rmw(object::Operation op, Callback callback) {
  const OperationId id{this->id(), ++op_seq_};
  pending_ops_.try_emplace(
      id, PendingClientOp{std::move(op), std::move(callback),
                          sim::EventHandle()});
  client_send(id);
  return id;
}

void VrReplica::submit_rmw_as(const OperationId& id,
                              const object::Operation& op) {
  on(this->id(), msg::Request{id, op});
}

void VrReplica::client_send(const OperationId& id) {
  auto it = pending_ops_.find(id);
  if (it == pending_ops_.end()) return;
  const msg::Request request{id, it->second.op};
  const ProcessId primary = primary_of(view_);
  if (primary == this->id()) {
    on(this->id(), request);
    it = pending_ops_.find(id);
    if (it == pending_ops_.end()) return;  // n == 1 completes synchronously
  } else {
    send(primary, request);
  }
  it->second.retry_timer =
      schedule_after(kClientRetryHeartbeats * config_.heartbeat_interval,
                     [this, id] { client_send(id); });
}

// ===========================================================================
// Dispatch
// ===========================================================================

void VrReplica::on_message(const sim::Message& message) {
  if (RecoveryInbox::dispatch(message, *this)) return;
  // A recovering replica takes no other protocol steps (sec. 4.3): its state
  // is unknown even to itself until the recovery quorum answers. Client
  // traffic is likewise ignored until then (the client retries elsewhere).
  if (status_ == Status::kRecovering) return;
  if (gateway_.handle(message)) return;
  if (!Inbox::dispatch(message, *this)) {
    CHT_UNREACHABLE("unknown message type for vr replica");
  }
}

}  // namespace cht::vr
