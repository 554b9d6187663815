// Client <-> replica wire protocol.
//
// Clients are simulated processes that reach replicas over the network
// instead of calling into them in-process. The protocol is three message
// types:
//
//   ClientRequest — an operation keyed by the client's OperationId
//     {client process, session sequence number}. RMW sequence numbers are
//     strictly monotonic per client and the client never has more than one
//     RMW outstanding, so a replica-side session table of one entry per
//     client suffices for exactly-once semantics. `leader_only` marks the
//     escalated form of a read: serve only if you are (or believe you are)
//     the leader, otherwise Redirect.
//
//   ClientReply — the response, keyed by the same id. Clients match replies
//     against their current in-flight id and drop anything stale, so
//     duplicated or late replies (an op retried at two replicas is answered
//     by both) are harmless.
//
//   Redirect — "not me; try leader_hint". -1 means the replica has no
//     current belief; the client falls back to deterministic rotation.
#pragma once

#include <string>
#include <string_view>

#include "common/types.h"
#include "object/object.h"

namespace cht::client {
namespace msg {

struct ClientRequest {
  static constexpr std::string_view kType = "client.request";
  OperationId id;
  object::Operation op;
  bool is_read = false;
  bool leader_only = false;
};

struct ClientReply {
  static constexpr std::string_view kType = "client.reply";
  OperationId id;
  std::string response;
};

struct Redirect {
  static constexpr std::string_view kType = "client.redirect";
  OperationId id;
  int leader_hint = -1;
};

}  // namespace msg
}  // namespace cht::client
