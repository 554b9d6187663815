#include "core/replica.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "sim/storage.h"

namespace cht::core {

namespace {

// Stable-storage schema. "promised" and "est" are synced before the message
// they back leaves the process; "batch.<j>" records ride along with the next
// sync (losing one only loses committed data a majority still holds).
constexpr const char* kKeyPromised = "promised";
constexpr const char* kKeyEstimate = "est";
constexpr const char* kBatchKeyPrefix = "batch.";

// Smallest representable local-time advance — "strictly after" an instant
// on a clock that ticks in whole microseconds.
constexpr Duration kTickAfter = Duration::micros(1);

// Resend cadence, in ticks of delta: the tick repeats a send still
// unanswered once this many ticks of real time have passed since it last
// left, so a round merely in flight after GST is never repeated.
constexpr int kRoundResendTicks = 2;        // EstReq, Prepare (lines 26, 54)
constexpr int kRmwResendTicks = 4;          // RMW, forwarded read (line 4)
constexpr int kCommitRebroadcastTicks = 8;  // last Commit (line 51)

std::string encode_batch(const Batch& ops) {
  std::vector<std::string> fields;
  fields.reserve(ops.size() * 4);
  for (const BatchOp& b : ops) {
    fields.push_back(std::to_string(b.id.process.index()));
    fields.push_back(std::to_string(b.id.seq));
    fields.push_back(b.op.kind);
    fields.push_back(b.op.arg);
  }
  return sim::encode_fields(fields);
}

Batch decode_batch(const std::string& record) {
  const std::vector<std::string> fields = sim::decode_fields(record);
  CHT_ASSERT(fields.size() % 4 == 0, "malformed batch record");
  Batch ops;
  ops.reserve(fields.size() / 4);
  for (std::size_t i = 0; i < fields.size(); i += 4) {
    ops.push_back(BatchOp{OperationId{ProcessId(std::stoi(fields[i])),
                                      std::stoll(fields[i + 1])},
                          object::Operation{fields[i + 2], fields[i + 3]}});
  }
  return ops;
}

}  // namespace

Replica::Replica(std::shared_ptr<const object::ObjectModel> model,
                 Config config)
    : model_(std::move(model)),
      config_(config),
      omega_(*this, config_.omega),
      els_(*this, [this] { return omega_.leader(); }, config_.els),
      clock_guard_(config_.clock_guard) {
  metrics().set_enabled(config_.metrics_enabled);
}

void Replica::on_start() {
  state_ = model_->make_initial_state();
  seed_op_sequences();
  omega_.start();
  tick();
}

void Replica::on_restart() {
  span_recovery_.begin(now_local().to_micros());
  c_recoveries_->inc();
  state_ = model_->make_initial_state();
  seed_op_sequences();
  recover_from_storage();
  omega_.start();
  els_.recover();  // resumes the persisted support counter (EL1 across crash)
  tick();
}

void Replica::seed_op_sequences() {
  // A fresh incarnation must never reuse an OperationId from a previous life
  // (committed RMWs are deduplicated by id, so a reused id would silently
  // swallow the new operation). Namespacing the sequence by incarnation
  // avoids the alternative of an fsync on every submit.
  const std::int64_t base = static_cast<std::int64_t>(incarnation()) << 40;
  rmw_seq_ = base;
  read_seq_ = base;
}

void Replica::recover_from_storage() {
  sim::StableStorage& st = storage();
  for (const std::string& key : st.keys_with_prefix(kBatchKeyPrefix)) {
    const BatchNumber j = std::stoll(key.substr(6));
    store_batch(j, decode_batch(*st.read(key)));
    c_recovered_batches_->inc();
  }
  if (const auto promised = st.read(kKeyPromised)) {
    promised_ = LocalTime::micros(std::stoll(*promised));
  }
  if (const auto est = st.read(kKeyEstimate)) {
    const std::vector<std::string> fields = sim::decode_fields(*est);
    CHT_ASSERT(fields.size() == 4, "malformed estimate record");
    const LocalTime ts = LocalTime::micros(std::stoll(fields[0]));
    const BatchNumber k = std::stoll(fields[1]);
    // The estimate record embeds Batch[k-1] so a torn crash can never leave
    // an estimate without its predecessor (I2 holds record-atomically).
    if (k >= 2) store_batch(k - 1, decode_batch(fields[3]));
    adopt_estimate(decode_batch(fields[2]), ts, k);
  }
  apply_ready();
  trace_event("recovery", "batches=", batches_.size(), " applied=",
              applied_upto_);
}

// ===========================================================================
// Client API (Thread 1)
// ===========================================================================

OperationId Replica::submit_rmw(object::Operation op, Callback callback) {
  CHT_ASSERT(!model_->is_read(op), "submit_rmw called with a read operation");
  c_rmws_submitted_->inc();
  const OperationId id{this->id(), ++rmw_seq_};
  auto [it, inserted] = pending_rmw_.try_emplace(
      id, PendingRmw{std::move(op), std::move(callback)});
  CHT_ASSERT(inserted, "duplicate RMW id");
  (void)it;
  rmw_send(id);
  return id;
}

void Replica::submit_rmw_as(const OperationId& id, object::Operation op,
                            Callback callback) {
  CHT_ASSERT(!model_->is_read(op), "submit_rmw_as called with a read operation");
  // Already committed here: the batch will (or did) reach the apply path,
  // which answers the gateway waiter; nothing to inject.
  if (committed_op_batch_.contains(id)) return;
  auto [it, inserted] = pending_rmw_.try_emplace(
      id, PendingRmw{std::move(op), std::move(callback)});
  if (!inserted) return;  // a retry of an id this replica is already pushing
  (void)it;
  c_rmws_submitted_->inc();
  rmw_send(id);
}

// The tick re-sends while the RMW stays pending: rides out pre-GST message
// loss and changes in the leader belief (paper lines 2-5).
void Replica::rmw_send(const OperationId& id) {
  auto it = pending_rmw_.find(id);
  if (it == pending_rmw_.end()) return;  // already completed
  it->second.sent = now_real();
  const ProcessId leader = omega_.leader();
  const msg::RmwRequest request{id, it->second.op};
  if (leader == this->id()) {
    // A single-replica cluster commits and completes inline, erasing `it`.
    on(this->id(), request);
  } else {
    send(leader, request);
  }
}

void Replica::complete_rmw(const OperationId& id,
                           const object::Response& response) {
  auto node = pending_rmw_.extract(id);
  if (node.empty()) return;
  if (node.mapped().is_read) {
    // A degraded read that rode the RMW path to commit: account it as the
    // read it is, including its full invocation-to-completion wait.
    c_reads_completed_->inc();
    record_read_block(node.mapped().invoked);
  } else {
    c_rmws_completed_->inc();
  }
  if (node.mapped().callback) node.mapped().callback(response);
}

void Replica::submit_read(object::Operation op, Callback callback) {
  CHT_ASSERT(model_->is_read(op), "submit_read called with a RMW operation");
  c_reads_submitted_->inc();
  if (config_.read_policy == ReadPolicy::kLeaderForward) {
    // Baseline: every read travels to the leader and back (never local,
    // always blocking).
    c_reads_blocked_->inc();
    const OperationId id{this->id(), ++read_seq_};
    forwarded_reads_.try_emplace(
        id, ForwardedRead{std::move(op), std::move(callback), now_real()});
    forward_read_send(id);
    return;
  }
  if (clock_guard_.suspect() &&
      config_.read_policy != ReadPolicy::kUnsafeLocal) {
    // Clock-suspect: the lease fast path (and every other clock-dependent
    // read policy) is off the table until the guard re-qualifies. Push the
    // read through consensus instead — slower, but correct under arbitrary
    // skew. kUnsafeLocal stays unguarded: it exists to demonstrate the
    // lower-bound violation and must keep misbehaving.
    c_reads_blocked_->inc();
    submit_read_degraded(std::move(op), std::move(callback), now_real());
    return;
  }
  pending_reads_.push_back(
      PendingRead{std::move(op), std::move(callback), std::nullopt, now_real(),
                  std::nullopt, false});
  auto it = std::prev(pending_reads_.end());
  if (try_advance_read(*it)) {
    pending_reads_.erase(it);  // non-blocking read: completed synchronously
  } else {
    it->counted_blocked = true;
    c_reads_blocked_->inc();
  }
}

bool Replica::batch_conflicts_with(const object::Operation& read,
                                   const Batch& batch) const {
  return std::any_of(batch.begin(), batch.end(), [&](const BatchOp& b) {
    return !model_->is_read(b.op) && model_->conflicts(read, b.op);
  });
}

// Paper lines 7-19. Returns true iff the read completed.
bool Replica::try_advance_read(PendingRead& read) {
  if (config_.read_policy == ReadPolicy::kUnsafeLocal) {
    read.khat = 0;  // no waiting whatsoever; see config.h for why this exists
  }
  if (clock_guard_.suspect() && !read.khat.has_value()) {
    // Every k-hat source below trusts this replica's clock (the leader
    // shortcut via AmLeader, lease validity, the safe-time beacon compare).
    // While suspect none of them may serve; guard_observe reroutes pending
    // reads through consensus on the trip, so this is only reached by a
    // read racing the flip inside a single delivery.
    return false;
  }
  if (config_.read_policy == ReadPolicy::kSafeTime && !read.khat.has_value()) {
    // Spanner option (b): read at timestamp `stamp`; serve once the safe
    // time (the newest LeaseGrant's issue time, acting as a safe-time
    // beacon) passes the stamp and the corresponding prefix is applied.
    if (!read.stamp.has_value()) read.stamp = now_local();
    if (phase_ == Phase::kSteady && els_.am_leader(leader_time_, now_local())) {
      read.khat = leader_next_batch_ - 1;  // the leader's time is safe time
    } else if (lease_.has_value() &&
               lease_->issued > *read.stamp + config_.epsilon) {
      // The beacon's issue time is on the leader's clock and the stamp on
      // ours; the +epsilon guard ensures the beacon was really issued after
      // the read's invocation, so its batch covers every completed write.
      read.khat = lease_->batch;
    } else {
      return false;  // wait for the next safe-time beacon
    }
  }
  if (!read.khat.has_value()) {
    if (phase_ == Phase::kSteady &&
        els_.am_leader(leader_time_, now_local())) {
      // Leader path: the leader is the only committer, so no batch beyond its
      // own last commit can be committed without its knowledge; its reads
      // linearize right after that batch with no pending-batch scan.
      read.khat = leader_next_batch_ - 1;
    } else if (lease_.has_value() &&
               now_local() < lease_->issued + config_.lease_period) {
      // Valid lease (k, ts): linearize after k, unless a *pending* batch
      // beyond k conflicts with the read, in which case after the largest
      // such batch (line 15).
      BatchNumber khat = lease_->batch;
      const bool conflict_blind =
          config_.read_policy == ReadPolicy::kAnyPendingBlocks;
      for (const auto& [j, ops] : pending_batch_) {
        if (j > lease_->batch && j > khat &&
            (conflict_blind || batch_conflicts_with(read.op, ops))) {
          khat = j;
        }
      }
      read.khat = khat;
    } else {
      return false;  // wait for a (renewed) lease
    }
  }
  if (applied_upto_ < *read.khat) return false;  // wait for batches <= k-hat
  const object::Response response = model_->apply(*state_, read.op);
  c_reads_completed_->inc();
  if (read.counted_blocked) {
    // Reads that completed synchronously never blocked and are not
    // recorded.
    record_read_block(read.invoked);
  }
  if (read.callback) read.callback(response);
  return true;
}

void Replica::record_read_block(RealTime invoked) {
  const std::int64_t us = (now_real() - invoked).to_micros();
  h_read_block_->record(us);
  trace_event("span.read.block", "us=", us);
}

void Replica::try_advance_reads() {
  for (auto it = pending_reads_.begin(); it != pending_reads_.end();) {
    it = try_advance_read(*it) ? pending_reads_.erase(it) : std::next(it);
  }
}

// ===========================================================================
// Clock-health guard (synchrony self-defense; see clock_guard.h)
// ===========================================================================

void Replica::guard_observe(const sim::Message& message) {
  if (!clock_guard_.observe(message.sent_local, now_local(), now_real())) {
    return;
  }
  c_clock_transitions_->inc();
  trace_event("clock.guard",
              clock_guard_.suspect() ? "suspect" : "requalified");
  if (!clock_guard_.suspect()) return;
  // Trip: reads already waiting on the lease path computed (or will compute)
  // k-hat from a clock we no longer trust. Reroute every one of them through
  // consensus — their callbacks move over, so each still fires exactly once.
  std::list<PendingRead> rerouted;
  rerouted.swap(pending_reads_);
  for (PendingRead& read : rerouted) {
    // Reads that already failed to advance once were counted blocked then.
    if (!read.counted_blocked) c_reads_blocked_->inc();
    submit_read_degraded(std::move(read.op), std::move(read.callback),
                         read.invoked);
  }
}

void Replica::submit_read_degraded(object::Operation op, Callback callback,
                                   RealTime invoked) {
  c_reads_degraded_->inc();
  // Degraded reads share read_seq_ but set bit 39: the id lands in the
  // committed-op dedup map next to RMW ids built from the same
  // incarnation<<40 base, so the sequence spaces must stay disjoint.
  const OperationId id{this->id(),
                       (std::int64_t{1} << 39) | ++read_seq_};
  auto [it, inserted] = pending_rmw_.try_emplace(
      id, PendingRmw{std::move(op), std::move(callback), /*is_read=*/true,
                     invoked});
  CHT_ASSERT(inserted, "duplicate degraded-read id");
  (void)it;
  rmw_send(id);
}

// ===========================================================================
// Thread 2: leadership
// ===========================================================================

void Replica::tick() {
  omega_.tick();
  els_.tick();
  // Line 20's loop: a follower polls AmLeader(now, now). A leader runs one
  // pass of its phase: it repeats an unanswered EstReq round, re-checks its
  // reign and whether the batches below k* are all in (they may have come
  // with a Commit or a Prepare), or runs the steady loop.
  if (phase_ == Phase::kFollower) {
    const LocalTime t = now_local();
    if (els_.am_leader(t, t)) become_leader(t);
  } else if (phase_ == Phase::kCollecting) {
    if (resend_due(est_reqs_sent_, kRoundResendTicks)) send_est_reqs();
  } else if (phase_ == Phase::kFetching) {
    if (check_still_leader()) maybe_finish_fetching();
  } else if (phase_ == Phase::kSteady) {
    steady_pass();
  }
  if (doops_.has_value() &&
      resend_due(doops_->prepares_sent, kRoundResendTicks)) {
    send_prepares();
  }
  resend_client_requests();
  request_missing_batches();
  schedule_after(config_.delta, [this] { tick(); });
}

bool Replica::resend_due(RealTime last, int ticks) const {
  return now_real() - last >= ticks * config_.delta;
}

void Replica::resend_client_requests() {
  // The due ids are collected first: a send to ourselves can commit and
  // answer inline (n = 1), erasing entries of the map being walked.
  std::vector<OperationId> due;
  for (const auto& [id, rmw] : pending_rmw_) {
    if (resend_due(rmw.sent, kRmwResendTicks)) due.push_back(id);
  }
  for (const OperationId& id : due) rmw_send(id);
  due.clear();
  for (const auto& [id, read] : forwarded_reads_) {
    if (resend_due(read.sent, kRmwResendTicks)) due.push_back(id);
  }
  for (const OperationId& id : due) forward_read_send(id);
}

bool Replica::is_leader() {
  return phase_ == Phase::kSteady && els_.am_leader(leader_time_, now_local());
}

void Replica::become_leader(LocalTime t) {
  trace_event("leader.become", "t=", t.to_micros());
  c_became_leader_->inc();
  end_span(span_recovery_, "recovery");  // recovered straight to leading
  span_leader_init_.begin(t.to_micros());
  span_leader_reign_.begin(t.to_micros());
  phase_ = Phase::kCollecting;
  leader_time_ = t;
  est_replies_.clear();
  chosen_.reset();
  next_ops_.clear();
  doops_.reset();
  // Line 25: initially consider every other process a potential leaseholder.
  leaseholders_.clear();
  for (int i = 0; i < cluster_size(); ++i) {
    if (i != id().index()) leaseholders_.insert(i);
  }
  last_lease_issued_ = LocalTime::min();
  // Our own estimate counts toward the majority (lines 26-30).
  est_replies_[id().index()] = msg::EstReply{leader_time_, estimate_, {}};
  send_est_reqs();
  maybe_finish_collecting();
}

void Replica::abdicate() {
  trace_event("leader.abdicate");
  c_abdicated_->inc();
  end_span(span_leader_reign_, "leader.reign");
  // A reign that never reached steady, or a DoOps cut short, has no
  // meaningful phase duration: disarm rather than record.
  span_leader_init_.cancel();
  span_doops_prepare_.cancel();
  span_doops_gate_.cancel();
  span_doops_total_.cancel();
  phase_ = Phase::kFollower;
  if (doops_.has_value()) {
    doops_->gate_timer.cancel();
    doops_->expiry_timer.cancel();
    doops_.reset();
  }
  est_replies_.clear();
  chosen_.reset();
  next_ops_.clear();  // submitters keep retrying toward the new leader
}

bool Replica::check_still_leader() {
  if (els_.am_leader(leader_time_, now_local())) return true;
  abdicate();
  return false;
}

// --- Initialization: collect estimates (lines 26-31) ----------------------

void Replica::send_est_reqs() {
  if (phase_ != Phase::kCollecting) return;
  if (!check_still_leader()) return;
  broadcast(msg::EstReq{leader_time_});
  est_reqs_sent_ = now_real();
}

void Replica::on(ProcessId from, const msg::EstReply& reply) {
  if (phase_ != Phase::kCollecting || reply.leader_time != leader_time_) return;
  // I2 in transit: the responder's Batch[k-1] rides along with its estimate.
  if (reply.estimate.has_value() && reply.estimate->k >= 2 &&
      reply.prev_batch.has_value()) {
    store_batch(reply.estimate->k - 1, *reply.prev_batch);
  }
  est_replies_[from.index()] = reply;
  maybe_finish_collecting();
}

void Replica::maybe_finish_collecting() {
  if (phase_ != Phase::kCollecting) return;
  if (static_cast<int>(est_replies_.size()) < majority()) return;
  // Select the freshest estimate (line 31).
  for (const auto& [index, reply] : est_replies_) {
    if (!reply.estimate.has_value()) continue;
    if (!chosen_.has_value() ||
        chosen_->freshness() < reply.estimate->freshness()) {
      chosen_ = reply.estimate;
    }
  }
  phase_ = Phase::kFetching;
  // FindMissingBatches(k*-2) (line 33) is the ordinary gap fill: every batch
  // below k* is committed (I2), and I3 puts each at a majority, hence at
  // least one correct peer. The tick repeats the requests until all are in.
  if (chosen_.has_value()) {
    max_known_batch_ = std::max(max_known_batch_, chosen_->k - 1);
  }
  request_missing_batches();
  maybe_finish_fetching();
}

void Replica::maybe_finish_fetching() {
  if (phase_ != Phase::kFetching) return;
  const BatchNumber upto = chosen_.has_value() ? chosen_->k - 1 : 0;
  for (BatchNumber j = 1; j <= upto; ++j) {
    if (!batches_.contains(j)) return;
  }
  // ExecuteUpToBatch(k*-1), picking up from the current applied state
  // (line 34).
  apply_ready();
  CHT_ASSERT(applied_upto_ >= upto, "leader catch-up failed to apply");
  begin_initial_commit();
}

void Replica::begin_initial_commit() {
  if (chosen_.has_value()) {
    phase_ = Phase::kInitDoOps;
    leader_next_batch_ = chosen_->k;  // will advance on commit
    start_doops(chosen_->ops, chosen_->k, /*initial=*/true);
  } else {
    // No process in our majority was ever notified of any batch: nothing to
    // recover; the NoOp below forms batch 1.
    leader_next_batch_ = 1;
    enter_steady();
  }
}

// --- DoOps (lines 52-70) ---------------------------------------------------

void Replica::start_doops(Batch ops, BatchNumber number, bool initial) {
  canonicalize(ops);
  CHT_ASSERT(!ops.empty(), "DoOps with empty batch");
  // Line 52: if we answered an EstReq from a leader later than ourselves, we
  // must not try to commit; abdicate.
  if (promised_ > leader_time_) {
    abdicate();
    return;
  }
  doops_.emplace();
  doops_->ops = ops;
  doops_->number = number;
  doops_->initial = initial;
  doops_->prepare_started = now_local();
  span_doops_prepare_.begin(doops_->prepare_started.to_micros());
  span_doops_total_.begin(doops_->prepare_started.to_micros());
  // Line 53: adopt (O, t, j) as our own estimate.
  adopt_estimate(std::move(ops), leader_time_, number);
  // Pipelined write path: the Prepares go out while our own covering sync is
  // still in flight, so batch j's prepare round overlaps the fsync instead
  // of serializing behind it. Our self-ack counts toward the majority
  // exactly like a follower's PrepareAck, so it is recorded only once the
  // covering sync completes — until then our adoption is no more durable
  // than an unacked follower's (see DESIGN.md on group-commit safety).
  send_prepares();
  const LocalTime t = leader_time_;
  request_sync([this, t, number] {
    if (!doops_.has_value() || t != leader_time_ ||
        number != doops_->number) {
      return;  // reign or batch changed while the sync was in flight
    }
    doops_->ackers.insert(id().index());
    maybe_reach_majority();  // n == 1: our own ack already is a majority
    check_leaseholder_gate();
  });
}

void Replica::maybe_reach_majority() {
  if (!doops_.has_value() || doops_->majority_reached ||
      static_cast<int>(doops_->ackers.size()) < majority()) {
    return;
  }
  doops_->majority_reached = true;
  end_span(span_doops_prepare_, "doops.prepare");
  span_doops_gate_.begin(now_local().to_micros());
  // Condition (ii) of the leaseholder gate: the worst-case ack round trip
  // after stabilization (2*delta of messages, plus fsync cost — see
  // prepare_ack_deadline()).
  doops_->gate_timer =
      schedule_at_local(doops_->prepare_started + prepare_ack_deadline(),
                        [this] { check_leaseholder_gate(); });
  check_leaseholder_gate();
}

Duration Replica::prepare_ack_deadline() const {
  return 2 * config_.delta + 3 * storage().config().sync_latency;
}

void Replica::send_prepares() {
  if (!doops_.has_value() || doops_->majority_reached) return;
  if (!check_still_leader()) return;
  // B = Batch[j-1]: committed by construction (initialization recovered it;
  // steady-state committed it one step earlier). Receivers store it, which
  // preserves I2 when they adopt (O, t, j).
  Batch prev;
  if (doops_->number >= 2) {
    auto it = batches_.find(doops_->number - 1);
    CHT_ASSERT(it != batches_.end(), "preparing j without committed j-1");
    prev = it->second;
  }
  broadcast(msg::Prepare{doops_->ops, leader_time_, doops_->number, prev});
  doops_->prepares_sent = now_real();
}

void Replica::on(ProcessId from, const msg::PrepareAck& ack) {
  if (!doops_.has_value() || ack.leader_time != leader_time_ ||
      ack.number != doops_->number) {
    return;
  }
  doops_->ackers.insert(from.index());
  maybe_reach_majority();
  check_leaseholder_gate();
}

void Replica::check_leaseholder_gate() {
  if (!doops_.has_value() || !doops_->majority_reached ||
      doops_->waiting_expiry) {
    return;
  }
  // kAllProcesses (Megastore-style) requires every process to ack each
  // write; with kLeaseholders (the paper) only the tracked set must.
  const bool all_leaseholders_acked =
      config_.commit_gate == CommitGate::kAllProcesses
          ? static_cast<int>(doops_->ackers.size()) == cluster_size()
          : std::all_of(leaseholders_.begin(), leaseholders_.end(),
                        [&](int lh) { return doops_->ackers.contains(lh); });
  if (all_leaseholders_acked) {
    // Condition (i): every process potentially holding a valid lease has
    // been notified of batch j; committing now cannot make any read stale.
    doops_->gate_timer.cancel();
    finish_doops();
    return;
  }
  if (now_local() >= doops_->prepare_started + prepare_ack_deadline()) {
    // Condition (ii) fired with a leaseholder missing: delay the commit
    // until every lease we or a predecessor issued has expired, even on
    // clocks running epsilon slow (lines 60-61).
    doops_->waiting_expiry = true;
    const LocalTime base = std::max(leader_time_, last_lease_issued_);
    const LocalTime safe =
        base + config_.lease_period + config_.epsilon + kTickAfter;
    doops_->expiry_timer =
        schedule_at_local(safe, [this] { finish_doops(); });
  }
}

void Replica::finish_doops() {
  if (!doops_.has_value()) return;
  if (config_.commit_wait > Duration::zero() && !doops_->commit_waited) {
    // Spanner-style commit wait: sit out the clock uncertainty before the
    // commit becomes visible. The paper's algorithm never does this.
    doops_->commit_waited = true;
    schedule_after(config_.commit_wait, [this] { finish_doops(); });
    return;
  }
  if (config_.commit_gate == CommitGate::kLeaseholders) {
    // Line 62: processes that did not acknowledge in time cease being
    // leaseholders (they rejoin via LeaseRequest). The Megastore-style gate
    // deliberately has no such memory.
    leaseholders_ = doops_->ackers;
    leaseholders_.erase(id().index());
  }
  // Lines 63-64: we must have been the leader continuously from t to now;
  // otherwise another leader may have taken over and committed differently.
  if (!check_still_leader()) return;

  const BatchNumber number = doops_->number;
  const Batch ops = std::move(doops_->ops);
  const bool initial = doops_->initial;
  doops_->gate_timer.cancel();
  doops_->expiry_timer.cancel();
  doops_.reset();

  // Lines 65-70: commit.
  store_batch(number, ops);
  pending_batch_.erase(number);
  apply_ready();
  leader_next_batch_ = number + 1;
  broadcast(msg::Commit{ops, number});
  last_commit_rebroadcast_ = now_real();
  c_batches_committed_->inc();
  end_span(span_doops_gate_, "doops.gate");
  end_span(span_doops_total_, "doops.total");
  trace_event("batch.commit", "j=", number, " ops=", ops.size());

  if (initial) {
    enter_steady();
    // Line 37: one NoOp RMW guarantees read liveness even if clients stop
    // submitting RMW operations (it commits a batch beyond every batch that
    // can be pending anywhere).
    submit_rmw(object::no_op(), Callback());
  } else {
    maybe_start_next_batch();
  }
}

// --- Steady state (lines 39-51) --------------------------------------------

void Replica::enter_steady() {
  phase_ = Phase::kSteady;
  end_span(span_leader_init_, "leader.init");
  if (!chosen_.has_value()) {
    // First-ever leader: still announce read leases and liveness NoOp.
    submit_rmw(object::no_op(), Callback());
  }
  steady_pass();  // the first pass at once; the tick runs the rest
}

void Replica::steady_pass() {
  // enter_steady's NoOp can abdicate before the first pass (line 52).
  if (phase_ != Phase::kSteady) return;
  const LocalTime t2 = now_local();
  if (promised_ > leader_time_ || !els_.am_leader(leader_time_, t2)) {
    abdicate();
    return;
  }
  // Renew leases only between DoOps calls, exactly as the paper's
  // sequential leader loop does (lines 39-51). Renewing *during* a commit
  // would be unsound: the leaseholder gate computes the lease-expiry wait
  // from the last lease issued when the wait begins; a renewal issued
  // mid-wait could hand an unresponsive process a fresh lease that outlives
  // the wait and lets it read a stale state.
  if (!doops_.has_value()) issue_leases(t2);
  maybe_start_next_batch();
  // Lazy rebroadcast of the last committed batch guards against Commit loss
  // (line 51).
  if (leader_next_batch_ >= 2 &&
      resend_due(last_commit_rebroadcast_, kCommitRebroadcastTicks)) {
    const BatchNumber last = leader_next_batch_ - 1;
    auto it = batches_.find(last);
    if (it != batches_.end()) {
      broadcast(msg::Commit{it->second, last});
      last_commit_rebroadcast_ = now_real();
    }
  }
}

void Replica::issue_leases(LocalTime now) {
  if (clock_guard_.suspect()) {
    // A suspect leader must not grant: its issue stamps could sit far in
    // holders' futures, stretching their validity windows past the expiry
    // the commit gate waits out. Holders' leases lapse within lease_period
    // and their reads block (or degrade) until this clock re-qualifies.
    return;
  }
  if (last_lease_issued_ != LocalTime::min() &&
      now - last_lease_issued_ < config_.lease_renew_interval) {
    return;
  }
  // Line 40's check again, for the renewals maybe_start_next_batch makes
  // between passes: a leader deposed since its last pass must not hand out
  // a lease that could outlive its successor's lease-expiry wait.
  if (promised_ > leader_time_ || !els_.am_leader(leader_time_, now)) return;
  if (last_lease_issued_ != LocalTime::min()) {
    // Renewal cadence within a reign: how far apart consecutive LeaseGrant
    // broadcasts actually land (>= lease_renew_interval; stretched by
    // in-flight DoOps rounds, which defer renewals).
    h_lease_interval_->record((now - last_lease_issued_).to_micros());
  }
  last_lease_issued_ = now;
  trace_event("lease.grant", "k=", leader_next_batch_ - 1, " holders=",
              leaseholders_.size());
  broadcast(msg::LeaseGrant{leader_next_batch_ - 1, now, leaseholders_});
}

void Replica::maybe_start_next_batch() {
  if (phase_ != Phase::kSteady || doops_.has_value() || next_ops_.empty()) {
    return;
  }
  // The paper's loop renews leases (line 44) before each DoOps (line 49);
  // under a continuous write stream this is where renewals happen. It is
  // safe exactly here: the grant precedes this batch's Prepares, so the
  // leaseholder gate's expiry computation accounts for it.
  issue_leases(now_local());
  Batch ops;
  for (auto& [id, op] : next_ops_) {
    if (!committed_op_batch_.contains(id)) ops.push_back(BatchOp{id, op});
  }
  next_ops_.clear();
  if (ops.empty()) return;
  start_doops(std::move(ops), leader_next_batch_, /*initial=*/false);
}

// ===========================================================================
// Thread 3: message handling
// ===========================================================================

void Replica::on_message(const sim::Message& message) {
  // Every delivery is skew evidence, whichever module consumes the payload:
  // the guard must see the failure-detector heartbeats too, since they are
  // the steadiest stamp stream a quiet replica receives.
  guard_observe(message);
  if (omega_.handle_message(message)) return;
  if (els_.handle_message(message)) return;
  if (gateway_.handle(message)) return;
  if (!Inbox::dispatch(message, *this)) {
    CHT_UNREACHABLE("unknown message type for core replica");
  }
}

void Replica::on(ProcessId from, const msg::LeaseRequest&) {
  // Reintegration (line 46): the process asks to hold leases again.
  if (phase_ == Phase::kSteady) leaseholders_.insert(from.index());
}

void Replica::on(ProcessId, const msg::BatchReply& reply) {
  store_batch(reply.number, reply.ops);
  apply_ready();
  if (phase_ == Phase::kFetching) maybe_finish_fetching();
}

void Replica::on(ProcessId from, const msg::RmwRequest& request) {
  auto committed = committed_op_batch_.find(request.id);
  if (committed != committed_op_batch_.end()) {
    // Already committed: the submitter evidently missed the Commit; resend
    // that batch directly so it can respond to its client.
    if (from != id()) {
      auto it = batches_.find(committed->second);
      CHT_ASSERT(it != batches_.end(), "committed map points at missing batch");
      send(from, msg::Commit{it->second, committed->second});
    }
    return;
  }
  if (phase_ == Phase::kFollower) return;  // submitter retries elsewhere
  next_ops_.try_emplace(request.id, request.op);
  maybe_start_next_batch();
}

// The tick re-sends while the read stays unanswered, as for an RMW.
void Replica::forward_read_send(const OperationId& id) {
  auto it = forwarded_reads_.find(id);
  if (it == forwarded_reads_.end()) return;
  it->second.sent = now_real();
  const ProcessId leader = omega_.leader();
  const msg::ReadRequest request{id, it->second.op};
  if (leader == this->id()) {
    on(this->id(), request);  // may answer synchronously, erasing `it`
  } else {
    send(leader, request);
  }
}

void Replica::on(ProcessId from, const msg::ReadRequest& request) {
  // Serve only as a verified steady leader: the leader's applied state
  // reflects every committed batch, so evaluating there is linearizable.
  // "Verified" leans on AmLeader's clock arithmetic, so a clock-suspect
  // leader stays silent too — the forwarder retries against the (possibly
  // new) believed leader rather than trusting a stale verdict here.
  if (clock_guard_.suspect()) return;
  if (!is_leader() || applied_upto_ < leader_next_batch_ - 1) return;
  const object::Response response = model_->apply(*state_, request.op);
  if (from == id()) {
    on(from, msg::ReadReply{request.id, response});
  } else {
    send(from, msg::ReadReply{request.id, response});
  }
}

void Replica::on(ProcessId, const msg::ReadReply& reply) {
  auto node = forwarded_reads_.extract(reply.id);
  if (node.empty()) return;
  c_reads_completed_->inc();
  record_read_block(node.mapped().invoked);
  if (node.mapped().callback) node.mapped().callback(reply.response);
}

void Replica::on(ProcessId from, const msg::EstReq& request) {
  if (request.leader_time < promised_) return;  // stale leader
  promised_ = request.leader_time;
  msg::EstReply reply{request.leader_time, estimate_, std::nullopt};
  if (estimate_.has_value() && estimate_->k >= 2) {
    auto it = batches_.find(estimate_->k - 1);
    // I2: we only adopt (O, t, j) when we know batch j-1.
    CHT_ASSERT(it != batches_.end(), "I2 violated: estimate without prev batch");
    reply.prev_batch = it->second;
  }
  // The promise must survive a crash: a recovered process that forgot it
  // could ack an older leader's Prepare the live quorum already superseded.
  // The reply only leaves once the covering sync completes; promise syncs
  // pending in one group-commit window share a single sync() and their
  // replies depart as one burst.
  persist_promised();
  request_sync([this, from, reply] { send(from, reply); });
}

void Replica::adopt_estimate(Batch ops, LocalTime t, BatchNumber j) {
  CHT_ASSERT(j <= 1 || batches_.contains(j - 1),
             "I2 violated: adopting estimate without previous batch");
  pending_batch_[j] = ops;
  estimate_ = Estimate{std::move(ops), t, j};
  persist_estimate();
}

void Replica::persist_promised() {
  storage().write(kKeyPromised, std::to_string(promised_.to_micros()));
}

void Replica::persist_estimate() {
  CHT_ASSERT(estimate_.has_value(), "persisting an absent estimate");
  Batch prev;
  if (estimate_->k >= 2) prev = batches_.at(estimate_->k - 1);
  storage().write(
      kKeyEstimate,
      sim::encode_fields({std::to_string(estimate_->ts.to_micros()),
                          std::to_string(estimate_->k),
                          encode_batch(estimate_->ops), encode_batch(prev)}));
}

void Replica::persist_batch(BatchNumber number, const Batch& ops) {
  storage().write(kBatchKeyPrefix + std::to_string(number), encode_batch(ops));
}

void Replica::on(ProcessId from, const msg::Prepare& prepare) {
  // Store B into Batch[j-1] unconditionally: it is committed information.
  if (prepare.number >= 2) {
    store_batch(prepare.number - 1, prepare.prev_batch);
    apply_ready();
  }
  const std::pair<LocalTime, BatchNumber> freshness{prepare.leader_time,
                                                    prepare.number};
  const bool fresh =
      !estimate_.has_value() || estimate_->freshness() <= freshness;
  if (prepare.leader_time >= promised_ && fresh) {
    promised_ = prepare.leader_time;
    adopt_estimate(prepare.ops, prepare.leader_time, prepare.number);
    // Durability before the ack leaves: the leader counts this process
    // toward its majority (and leaseholder gate) on the strength of the ack,
    // so the adopted estimate and promise must survive a crash. Under group
    // commit the ack rides the next covering sync — every Prepare (or
    // duplicate resend) that lands while a sync is in flight coalesces into
    // one following sync(), and the acks leave as one burst. A later sync
    // covering a *fresher* estimate still justifies this ack: recovery then
    // restores state at least as advanced as what was acked.
    persist_promised();
    const msg::PrepareAck ack{prepare.leader_time, prepare.number};
    request_sync([this, from, ack] { send(from, ack); });
  }
}

void Replica::on(ProcessId, const msg::Commit& commit) {
  end_span(span_recovery_, "recovery");  // first post-restart live sign
  store_batch(commit.number, commit.ops);
  pending_batch_.erase(commit.number);
  apply_ready();
  // Commit-path gap fill (paper line ~105): fetch any missing earlier batch.
  if (applied_upto_ < commit.number) request_missing_batches();
}

void Replica::on(ProcessId from, const msg::LeaseGrant& grant) {
  end_span(span_recovery_, "recovery");  // first post-restart live sign
  if (!grant.leaseholders.contains(id().index())) {
    // We were dropped from the leaseholder set (we missed a Prepare round);
    // ask to be reintegrated (lines 45-46 / 102-104).
    send(from, msg::LeaseRequest{});
    return;
  }
  if (!lease_.has_value() || lease_->issued < grant.issued) {
    lease_ = Lease{grant.batch, grant.issued};
  }
  max_known_batch_ = std::max(max_known_batch_, grant.batch);
  try_advance_reads();
}

void Replica::on(ProcessId from, const msg::BatchRequest& request) {
  auto it = batches_.find(request.number);
  if (it == batches_.end()) return;
  send(from, msg::BatchReply{request.number, it->second});
}

// ===========================================================================
// Shared machinery
// ===========================================================================

void Replica::store_batch(BatchNumber number, const Batch& ops) {
  CHT_ASSERT(number >= 1, "batch numbers start at 1");
  auto it = batches_.find(number);
  if (it != batches_.end()) {
    // I1: once assigned, a batch's value is stable and agreed upon.
    CHT_ASSERT(it->second == ops, "I1 violated: conflicting batch contents");
    return;
  }
  for (const BatchOp& op : ops) {
    auto [entry, inserted] = committed_op_batch_.try_emplace(op.id, number);
    // I1: no operation is included in two different batches.
    CHT_ASSERT(inserted || entry->second == number,
               "I1 violated: operation in two batches");
  }
  batches_.emplace(number, ops);
  persist_batch(number, ops);
  if (!storage().config().group_commit) {
    // Naive sync-per-batch discipline (the bench A/B baseline): each batch
    // record is fsynced on its own instead of riding the next ack-critical
    // covering sync. Fire-and-forget — correctness never depended on this
    // sync, but the device time it occupies delays the syncs acks do wait on.
    sync_storage();
  }
  max_known_batch_ = std::max(max_known_batch_, number);
}

void Replica::apply_ready() {
  bool advanced = false;
  while (true) {
    auto it = batches_.find(applied_upto_ + 1);
    if (it == batches_.end()) break;
    // Operations within a batch are applied in canonical id order -- the
    // same pre-determined order at every process.
    for (const BatchOp& op : it->second) {
      const object::Response response = model_->apply(*state_, op.op);
      // Unconditional: pending_rmw_ may hold client-session ids injected via
      // submit_rmw_as, not just this replica's own ids.
      complete_rmw(op.id, response);
      // Every applied RMW feeds the client session table (in apply order, at
      // every replica — including crash-recovery replay, which is what
      // rebuilds it).
      gateway_.on_applied(op.id, response);
    }
    ++applied_upto_;
    pending_batch_.erase(applied_upto_);
    advanced = true;
  }
  if (advanced) try_advance_reads();
}

// Gap fill, up to 64 requests at a time, for the missing batches up to
// max_known_batch_: the highest batch known to be committed (from a Commit,
// a Prepare's Batch[j-1], a LeaseGrant's batch number or a new leader's
// k*-1). Reads never drive it: a read blocked on a pending batch waits for
// that batch's Commit, the next Prepare or LeaseGrant, or the leader's lazy
// Commit rebroadcast, so reads stay message-free.
void Replica::request_missing_batches() {
  int outstanding = 0;
  for (BatchNumber j = applied_upto_ + 1;
       j <= max_known_batch_ && outstanding < 64; ++j) {
    if (!batches_.contains(j)) {
      broadcast(msg::BatchRequest{j});
      ++outstanding;
    }
  }
}

}  // namespace cht::core
