// Networked client process.
//
// A Client is a simulated process (added via Simulation::add_client, so it
// never counts toward quorum math) that submits operations to the replica
// cluster over the network and owns the whole retry story:
//
//   - per-client session: RMWs carry strictly monotonic sequence numbers
//     and at most one RMW is ever outstanding (later submissions queue),
//     which is what lets replica-side session tables stay one entry per
//     client;
//   - exactly-once retries: a timed-out request is re-sent under the SAME
//     OperationId (possibly to a different replica) with exponential
//     backoff, so the replicas' dedup machinery — not client luck —
//     guarantees single application;
//   - leader routing: Redirects teach the client where the leader is; a
//     timeout forgets the hint and falls back to deterministic target
//     rotation (home, home+1, ... — no randomness, so runs stay
//     reproducible);
//   - read fallback policy: reads go to the client's home replica first
//     (the paper's local lease reads make that the fast path); after two
//     timeouts the read escalates to leader_only and chases Redirects to
//     the leader.
//
// Timeouts scale with the model's delay bound delta: the first attempt waits
// 8 delta (a commit takes a few delta plus fsync cost, so calm runs rarely
// retry), each retry doubles it, and 64 delta caps it so post-heal recovery
// latency stays bounded.
//
// Completion, latency, retry, redirect and escalation counts land in the
// client's registry (sim::Process::metrics) under "client.*".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "client/wire.h"
#include "common/time.h"
#include "common/types.h"
#include "object/object.h"
#include "sim/message.h"
#include "sim/process.h"

namespace cht::client {

class Client : public sim::Process {
 public:
  using Callback = std::function<void(const OperationId&, const std::string&)>;
  // Fires once, when the operation leaves the internal queue and its first
  // request goes on the wire. History recorders hang the invocation instant
  // off this — the queue wait is client-library internal, not observable
  // concurrency, and recording it as such would make every queued op appear
  // concurrent with everything that runs while it waits.
  using DispatchHook = std::function<void(const OperationId&)>;

  // `home` is the preferred replica index (reads go there first; rotation
  // starts there); `delta` scales the retry timeouts.
  Client(int home, Duration delta) : delta_(delta), home_(home) {}

  // Enqueues an operation; strictly sequential per client — the head of the
  // queue is the only request on the wire. Returns the OperationId the
  // operation will travel under (stable across every retry). `cb` fires
  // exactly once, on the first accepted reply; `on_dispatch` (optional)
  // fires once, when the operation is first sent.
  OperationId submit(object::Operation op, bool is_read, Callback cb,
                     DispatchHook on_dispatch = nullptr);

  void on_message(const sim::Message& message) override;
  // Replies and redirects; anything else is ignored.
  using Inbox = sim::Inbox<msg::ClientReply, msg::Redirect>;

 private:
  struct Pending {
    OperationId id;
    object::Operation op;
    bool is_read = false;
    bool leader_only = false;
    Callback cb;
    DispatchHook on_dispatch;
    int attempts = 0;
    int redirect_hops = 0;
    RealTime begun;
  };

  friend Inbox;
  void on(ProcessId from, const msg::ClientReply& reply);
  void on(ProcessId from, const msg::Redirect& redirect);
  void dispatch_current();
  void send_current();
  void arm_timer();
  void on_timeout();
  void complete(const std::string& response);
  int target_for(const Pending& pending) const;

  Duration delta_;
  int home_ = 0;
  int leader_hint_ = -1;
  std::int64_t seq_ = 0;
  std::optional<Pending> current_;
  std::deque<Pending> queue_;
  sim::EventHandle timer_;
};

}  // namespace cht::client
