// ReplicaGateway: the replica-side endpoint of the client wire protocol.
//
// Each replica embeds one gateway and is its host: the gateway calls the
// replica directly, through the GatewayHost contract below. The stacks differ
// in one client-facing rule, Host::kAnyReplicaServes: chtread's replicas
// take any RMW (forwarding it to the leader themselves) and serve plain reads
// from their lease, while Raft and VR serve only at the leader and redirect
// everything else. The gateway owns everything stack-independent about
// client traffic:
//
//   - request admission through the replicated SessionTable (fresh /
//     duplicate-answered-from-cache / stale-dropped), which is what makes
//     retried RMWs exactly-once even across leader changes and crashes;
//   - Redirect generation for requests this replica must not serve;
//   - reply routing: the stack reports *every* applied RMW (its own, other
//     replicas', recovered ones) through on_applied(); the gateway updates
//     the session table in apply order and answers the waiting client, if
//     any. Waiters are volatile — after a crash the client's retry hits the
//     rebuilt session table and gets the cached response instead.
//
// The gateway never sets timers and never retries; all retry/backoff logic
// lives in the Client. It is bounded: one session entry and at most one
// waiter per client.
#pragma once

#include <concepts>
#include <map>
#include <string>
#include <utility>

#include "client/session.h"
#include "client/wire.h"
#include "common/types.h"
#include "object/object.h"
#include "sim/message.h"
#include "sim/process.h"

namespace cht::client {

// What a replica provides to host its gateway.
template <class Host>
concept GatewayHost =
    std::derived_from<Host, sim::Process> &&
    requires(Host& host, const OperationId& id, const object::Operation& op,
             typename Host::Callback done) {
      // True if every replica takes RMWs and serves plain (not leader_only)
      // reads; false if only the leader does and the rest redirect.
      { Host::kAnyReplicaServes } -> std::convertible_to<bool>;
      // Is this replica the leader? Gates leader_only reads, and every
      // request where kAnyReplicaServes is false.
      { host.is_leader() } -> std::same_as<bool>;
      // Best-effort leader index for Redirects; -1 = unknown.
      { host.leader_index() } -> std::same_as<int>;
      // Injects a client RMW under the client's session id. Must ignore ids
      // already pending or in the log.
      host.submit_rmw_as(id, op);
      // Serves a read; `done` fires once with the response.
      host.submit_read(op, std::move(done));
    };

template <class Host>
class ReplicaGateway {
 public:
  // `host` must outlive the gateway; the gateway's "gateway.*" counters
  // land in the host's registry.
  explicit ReplicaGateway(Host& host) : host_(host) {}
  // Read callbacks in flight at the host hold the gateway's address.
  ReplicaGateway(const ReplicaGateway&) = delete;
  ReplicaGateway& operator=(const ReplicaGateway&) = delete;

  using Inbox = sim::Inbox<msg::ClientRequest>;
  // Consumes ClientRequest messages; returns false for everything else.
  bool handle(const sim::Message& message) {
    static_assert(GatewayHost<Host>);
    return Inbox::dispatch(message, *this);
  }

  // Called by the stack for every applied RMW, in apply order, with the
  // response the state machine produced. Safe (and required) during
  // crash-recovery replay: that is what rebuilds the session table.
  void on_applied(const OperationId& id, const std::string& response) {
    if (!is_client(id)) return;
    sessions_.record(id, response);
    const auto it = rmw_waiters_.find(id.process.index());
    if (it != rmw_waiters_.end() && it->second.first == id) {
      reply(it->second.second, id, response);
      rmw_waiters_.erase(it);
    }
  }

  const SessionTable& sessions() const { return sessions_; }

 private:
  friend Inbox;

  void on(ProcessId from, const msg::ClientRequest& request) {
    if (request.is_read) {
      if ((request.leader_only || !Host::kAnyReplicaServes) &&
          !host_.is_leader()) {
        redirect(from, request.id);
        return;
      }
      host_.metrics().add("gateway.reads");
      const OperationId id = request.id;
      host_.submit_read(request.op,
                        [this, from, id](const object::Response& response) {
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
    if (!Host::kAnyReplicaServes && !host_.is_leader()) {
      redirect(from, request.id);
      return;
    }
    host_.metrics().add("gateway.rmws");
    // Remember (or refresh) the waiter first: submit_rmw_as may apply and
    // reply synchronously in a single-replica cluster.
    rmw_waiters_[request.id.process.index()] = {request.id, from};
    // Always (re)submit on a fresh id — the stack dedups ids already pending
    // or in its log, and a retry after this replica lost and regained
    // leadership may genuinely need the re-injection.
    host_.submit_rmw_as(request.id, request.op);
  }

  void reply(ProcessId to, const OperationId& id,
             const std::string& response) {
    host_.send(to, msg::ClientReply{id, response});
  }

  void redirect(ProcessId to, const OperationId& id) {
    host_.metrics().add("gateway.redirects");
    host_.send(to, msg::Redirect{id, host_.leader_index()});
  }

  bool is_client(const OperationId& id) const {
    return id.process.index() >= host_.cluster_size();
  }

  Host& host_;
  SessionTable sessions_;
  // At most one outstanding RMW waiter per client (clients are sequential):
  // client index -> (op id, where to send the reply).
  std::map<int, std::pair<OperationId, ProcessId>> rmw_waiters_;
};

}  // namespace cht::client
