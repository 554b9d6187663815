#include "client/client.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace cht::client {

namespace {
// The first attempt's timeout and the backoff cap, in deltas, and the read
// attempts served locally before a read escalates to a leader read.
constexpr int kFirstTimeoutDeltas = 8;
constexpr int kBackoffCapDeltas = 64;
constexpr int kEscalateReadsAfter = 2;
}  // namespace

OperationId Client::submit(object::Operation op, bool is_read, Callback cb,
                           DispatchHook on_dispatch) {
  CHT_ASSERT(id().valid(), "client not attached");
  Pending pending;
  pending.id = OperationId{id(), ++seq_};
  pending.op = std::move(op);
  pending.is_read = is_read;
  pending.cb = std::move(cb);
  pending.on_dispatch = std::move(on_dispatch);
  metrics().add(is_read ? "client.reads" : "client.rmws");
  const OperationId out = pending.id;
  if (current_) {
    queue_.push_back(std::move(pending));
  } else {
    current_ = std::move(pending);
    dispatch_current();
  }
  return out;
}

void Client::dispatch_current() {
  Pending& pending = *current_;
  pending.begun = now_real();
  if (pending.on_dispatch) pending.on_dispatch(pending.id);
  send_current();
}

int Client::target_for(const Pending& pending) const {
  // First read attempt: the home replica (the local-lease fast path).
  // Otherwise prefer a learned leader; fall back to deterministic rotation
  // anchored at home.
  if (pending.attempts == 0 && pending.is_read && !pending.leader_only) {
    return home_;
  }
  if (leader_hint_ >= 0) return leader_hint_;
  return (home_ + pending.attempts) % cluster_size();
}

void Client::send_current() {
  Pending& pending = *current_;
  msg::ClientRequest request{pending.id, pending.op, pending.is_read,
                             pending.leader_only};
  send(ProcessId(target_for(pending)), std::move(request));
  arm_timer();
}

void Client::arm_timer() {
  timer_.cancel();
  const int doublings = std::min(current_->attempts, 8);
  const Duration timeout = std::min(
      Duration::micros((kFirstTimeoutDeltas * delta_).to_micros()
                       << doublings),
      kBackoffCapDeltas * delta_);
  timer_ = schedule_after(timeout, [this] { on_timeout(); });
}

void Client::on_timeout() {
  if (!current_) return;
  Pending& pending = *current_;
  ++pending.attempts;
  pending.redirect_hops = 0;
  // The hint led nowhere (crashed or deposed leader); forget it and let
  // rotation / fresh Redirects re-teach us.
  leader_hint_ = -1;
  metrics().add("client.retries");
  if (pending.is_read && !pending.leader_only &&
      pending.attempts >= kEscalateReadsAfter) {
    pending.leader_only = true;
    metrics().add("client.read_escalations");
  }
  send_current();
}

void Client::on_message(const sim::Message& message) {
  // Anything else (a replica-protocol message) is not for clients.
  Inbox::dispatch(message, *this);
}

void Client::on(ProcessId, const msg::ClientReply& reply) {
  if (!current_ || reply.id != current_->id) {
    metrics().add("client.late_replies");
    return;
  }
  complete(reply.response);
}

void Client::on(ProcessId, const msg::Redirect& redirect) {
  if (!current_ || redirect.id != current_->id) return;
  metrics().add("client.redirects");
  Pending& pending = *current_;
  if (redirect.leader_hint >= 0 && redirect.leader_hint < cluster_size() &&
      pending.redirect_hops < cluster_size()) {
    ++pending.redirect_hops;
    leader_hint_ = redirect.leader_hint;
    send_current();
  }
  // Hint unknown or hop budget spent: wait for the timeout to rotate.
}

void Client::complete(const std::string& response) {
  timer_.cancel();
  Pending done = std::move(*current_);
  current_.reset();
  const std::int64_t latency_us = (now_real() - done.begun).to_micros();
  metrics().histogram(done.is_read ? "client.read_latency_us"
                                  : "client.rmw_latency_us")
      .record(latency_us);
  metrics().histogram("client.attempts_per_op").record(done.attempts + 1);
  if (!queue_.empty()) {
    current_ = std::move(queue_.front());
    queue_.pop_front();
    dispatch_current();
  }
  if (done.cb) done.cb(done.id, response);
}

}  // namespace cht::client
