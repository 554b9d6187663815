#include "baselines/megastore_chubby.h"

#include <string>

#include "common/assert.h"
#include "sim/storage.h"

namespace cht::baselines {

// ===========================================================================
// ChubbyService
// ===========================================================================

void ChubbyService::on_start() {
  session_expiry_.assign(cluster_size(), LocalTime::min());
}

void ChubbyService::on_restart() {
  session_expiry_.assign(cluster_size(), LocalTime::min());
  for (const std::string& key : storage().keys_with_prefix("session.")) {
    const int client = std::stoi(key.substr(8));
    session_expiry_.at(static_cast<std::size_t>(client)) =
        LocalTime::micros(std::stoll(*storage().read(key)));
  }
}

void ChubbyService::persist_session(int client) {
  storage().write("session." + std::to_string(client),
                  std::to_string(session_expiry_.at(
                      static_cast<std::size_t>(client)).to_micros()));
}

bool ChubbyService::session_alive(int client) {
  return session_expiry_.at(client) > now_local();
}

void ChubbyService::on_message(const sim::Message& message) {
  if (!Inbox::dispatch(message, *this)) {
    CHT_UNREACHABLE("unknown message type for chubby service");
  }
}

void ChubbyService::on(ProcessId client, const chubby_msg::KeepAlive&) {
  session_expiry_.at(client.index()) = now_local() + config_.session_ttl;
  // Durable before the grant leaves: a restarted service must not think a
  // granted, still-running session has expired. KeepAlives from several
  // clients pending in one group-commit window share a covering sync and
  // their grants leave as one burst.
  persist_session(client.index());
  request_sync([this, client] {
    send(client, chubby_msg::LeaseGrant{config_.session_ttl});
  });
}

void ChubbyService::on(ProcessId from, const chubby_msg::Query& query) {
  send(from, chubby_msg::QueryReply{query.subject, query.query_id,
                                    !session_alive(query.subject)});
}

// ===========================================================================
// MegastoreNode
// ===========================================================================

void MegastoreNode::on_start() { keepalive_tick(); }

void MegastoreNode::keepalive_tick() {
  if (keepalives_enabled_) {
    send(chubby_, chubby_msg::KeepAlive{});
  }
  schedule_after(config_.keepalive_interval, [this] { keepalive_tick(); });
}

void MegastoreNode::begin_write(std::set<int> non_ackers) {
  const std::int64_t seq = ++write_seq_;
  PendingWrite write;
  write.awaiting_invalidation = std::move(non_ackers);
  pending_.emplace(seq, std::move(write));
  if (pending_.at(seq).awaiting_invalidation.empty()) {
    pending_.erase(seq);
    ++writes_completed_;
    return;
  }
  query_tick(seq);
}

void MegastoreNode::query_tick(std::int64_t write_seq) {
  auto it = pending_.find(write_seq);
  if (it == pending_.end()) return;
  // Ask Chubby about every straggler still awaiting invalidation. If we are
  // cut off from Chubby, these queries go nowhere — and there is no other
  // authority to consult: the write stays blocked (the paper's point).
  for (int subject : it->second.awaiting_invalidation) {
    const std::int64_t qid = ++query_seq_;
    query_to_write_[qid] = write_seq;
    send(chubby_, chubby_msg::Query{subject, qid});
  }
  it->second.retry_timer = schedule_after(
      config_.query_retry, [this, write_seq] { query_tick(write_seq); });
}

void MegastoreNode::on_message(const sim::Message& message) {
  if (!Inbox::dispatch(message, *this)) {
    CHT_UNREACHABLE("unknown message type for megastore node");
  }
}

void MegastoreNode::on(ProcessId, const chubby_msg::LeaseGrant&) {
  // Dispatched but unused: only the service's view of a session, asked
  // through Query, decides invalidation.
}

void MegastoreNode::on(ProcessId, const chubby_msg::QueryReply& reply) {
  auto mapped = query_to_write_.find(reply.query_id);
  if (mapped == query_to_write_.end()) return;
  const std::int64_t write_seq = mapped->second;
  query_to_write_.erase(mapped);
  if (!reply.session_expired) return;
  auto it = pending_.find(write_seq);
  if (it == pending_.end()) return;
  it->second.awaiting_invalidation.erase(reply.subject);
  if (it->second.awaiting_invalidation.empty()) {
    it->second.retry_timer.cancel();
    pending_.erase(it);
    ++writes_completed_;
  }
}

}  // namespace cht::baselines
