// ReplicaGateway: the replica-side endpoint of the client wire protocol.
//
// Each replica embeds one gateway and gives it stack-specific hooks (am I
// the leader, where do I think the leader is, how do I submit an RMW under
// a caller-chosen OperationId, how do I serve a read). The gateway then
// owns everything stack-independent about client traffic:
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

#include <functional>
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

class ReplicaGateway {
 public:
  struct Hooks {
    // May this replica inject an RMW into the replication path right now?
    // (chtread: always — any replica forwards to the leader; raft/vr: only
    // the leader/primary.)
    std::function<bool()> accepts_rmw;
    // Is this replica the leader/primary (gates leader_only reads)?
    std::function<bool()> is_leader;
    // Best-effort leader index for Redirects; -1 = unknown.
    std::function<int()> leader_hint;
    // Whether plain (non-leader_only) reads are served at any replica
    // (chtread's local lease reads) or must be redirected to the leader.
    bool local_reads = false;
    // Stack entry points. submit_rmw must tolerate duplicate ids (ids
    // already pending or in the log) by ignoring them.
    std::function<void(const OperationId&, const object::Operation&)>
        submit_rmw;
    std::function<void(const object::Operation&,
                       std::function<void(std::string)>)>
        submit_read;
  };

  // `host` must outlive the gateway; the gateway's "gateway.*" counters
  // land in the host's registry.
  explicit ReplicaGateway(sim::Process& host) : host_(host) {}

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  using Inbox = sim::Inbox<msg::ClientRequest>;
  // Consumes ClientRequest messages; returns false for everything else.
  bool handle(const sim::Message& message) {
    return Inbox::dispatch(message, *this);
  }

  // Called by the stack for every applied RMW, in apply order, with the
  // response the state machine produced. Safe (and required) during
  // crash-recovery replay: that is what rebuilds the session table.
  void on_applied(const OperationId& id, const std::string& response);

  const SessionTable& sessions() const { return sessions_; }

 private:
  friend Inbox;
  void on(ProcessId from, const msg::ClientRequest& request);
  void reply(ProcessId to, const OperationId& id, const std::string& response);
  void redirect(ProcessId to, const OperationId& id);
  bool is_client(const OperationId& id) const {
    return id.process.index() >= host_.cluster_size();
  }

  sim::Process& host_;
  Hooks hooks_;
  SessionTable sessions_;
  // At most one outstanding RMW waiter per client (clients are sequential):
  // client index -> (op id, where to send the reply).
  std::map<int, std::pair<OperationId, ProcessId>> rmw_waiters_;
};

}  // namespace cht::client
