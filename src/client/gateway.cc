#include "client/gateway.h"

namespace cht::client {

void ReplicaGateway::on(ProcessId from, const msg::ClientRequest& request) {
  if (request.is_read) {
    if ((request.leader_only || !hooks_.local_reads) && !hooks_.is_leader()) {
      redirect(from, request.id);
      return;
    }
    host_.metrics().add("gateway.reads");
    const OperationId id = request.id;
    hooks_.submit_read(request.op, [this, from, id](std::string response) {
      reply(from, id, response);
    });
    return;
  }

  switch (sessions_.admit(request.id)) {
    case SessionTable::Admit::kStale:
      host_.metrics().add("gateway.stale_dropped");
      return;
    case SessionTable::Admit::kDuplicate:
      host_.metrics().add("gateway.dup_replies");
      reply(from, request.id, *sessions_.cached(request.id));
      return;
    case SessionTable::Admit::kFresh:
      break;
  }
  if (!hooks_.accepts_rmw()) {
    redirect(from, request.id);
    return;
  }
  host_.metrics().add("gateway.rmws");
  // Remember (or refresh) the waiter first: submit_rmw may apply and reply
  // synchronously in a single-replica cluster.
  rmw_waiters_[request.id.process.index()] = {request.id, from};
  // Always (re)submit on a fresh id — the stack dedups ids already pending
  // or in its log, and a retry after this replica lost and regained
  // leadership may genuinely need the re-injection.
  hooks_.submit_rmw(request.id, request.op);
}

void ReplicaGateway::on_applied(const OperationId& id,
                                const std::string& response) {
  if (!is_client(id)) return;
  sessions_.record(id, response);
  const auto it = rmw_waiters_.find(id.process.index());
  if (it != rmw_waiters_.end() && it->second.first == id) {
    reply(it->second.second, id, response);
    rmw_waiters_.erase(it);
  }
}

void ReplicaGateway::reply(ProcessId to, const OperationId& id,
                           const std::string& response) {
  host_.send(to, msg::ClientReply{id, response});
}

void ReplicaGateway::redirect(ProcessId to, const OperationId& id) {
  host_.metrics().add("gateway.redirects");
  host_.send(to, msg::Redirect{id, hooks_.leader_hint()});
}

}  // namespace cht::client
