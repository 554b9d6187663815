// Compile-time audit of wire-format structs (detlint rule D5's runtime-free
// counterpart). Pulled in by tests only — it includes every receiver's
// header, so it must never be included from protocol code itself.
//
// Two tiers:
//   - Fixed-size payloads (no vectors/strings/optionals) must be trivially
//     copyable and standard-layout: they could be memcpy'd onto a real wire
//     verbatim, and a default-constructed instance has no indeterminate
//     bits (every scalar field carries a member initializer, enforced
//     statically by detlint D5 and exercised here via value-initialization
//     equality in the determinism tests).
//   - Every message any receiver's Inbox lists must at least be a value:
//     default-constructible and copyable, as serialization would need. The
//     check folds over the inboxes themselves, so a new message type is
//     covered the moment a receiver lists it.
#pragma once

#include <type_traits>

#include "baselines/megastore_chubby.h"
#include "baselines/pql_lease.h"
#include "client/client.h"
#include "client/gateway.h"
#include "client/wire.h"
#include "common/time.h"
#include "common/types.h"
#include "core/messages.h"
#include "core/replica.h"
#include "leader/enhanced_leader.h"
#include "leader/omega.h"
#include "raft/raft.h"
#include "sim/message.h"
#include "vr/vr.h"

namespace cht::audit {

template <class T>
inline constexpr bool wire_scalar_v =
    std::is_trivially_copyable_v<T> && std::is_standard_layout_v<T> &&
    std::is_default_constructible_v<T>;

template <class T>
inline constexpr bool wire_value_v =
    std::is_default_constructible_v<T> && std::is_copy_constructible_v<T> &&
    std::is_copy_assignable_v<T>;

template <class Inbox>
inline constexpr bool inbox_values_v = false;
template <class... Ts>
inline constexpr bool inbox_values_v<sim::Inbox<Ts...>> =
    (wire_value_v<Ts> && ...);

// --- Identifier & time vocabulary (common/) ---------------------------------
static_assert(wire_scalar_v<ProcessId>);
static_assert(wire_scalar_v<OperationId>);
static_assert(wire_scalar_v<Duration>);
static_assert(wire_scalar_v<LocalTime>);
static_assert(wire_scalar_v<RealTime>);
static_assert(wire_scalar_v<BatchNumber>);

// --- Fixed-size payloads ----------------------------------------------------
static_assert(wire_scalar_v<core::Lease>);
static_assert(wire_scalar_v<core::msg::EstReq>);
static_assert(wire_scalar_v<core::msg::PrepareAck>);
static_assert(wire_scalar_v<core::msg::LeaseRequest>);
static_assert(wire_scalar_v<core::msg::BatchRequest>);
static_assert(wire_scalar_v<raft::msg::RequestVote>);
static_assert(wire_scalar_v<raft::msg::VoteReply>);
static_assert(wire_scalar_v<raft::msg::AppendReply>);
static_assert(wire_scalar_v<vr::msg::PrepareOk>);
static_assert(wire_scalar_v<vr::msg::Commit>);
static_assert(wire_scalar_v<vr::msg::StartViewChange>);
static_assert(wire_scalar_v<vr::msg::GetState>);
static_assert(wire_scalar_v<client::msg::Redirect>);

// --- Every inbox ------------------------------------------------------------
static_assert(inbox_values_v<core::Replica::Inbox>);
static_assert(inbox_values_v<raft::RaftReplica::Inbox>);
static_assert(inbox_values_v<vr::VrReplica::Inbox>);
static_assert(inbox_values_v<vr::VrReplica::RecoveryInbox>);
static_assert(inbox_values_v<client::Client::Inbox>);
static_assert(inbox_values_v<client::ReplicaGateway<core::Replica>::Inbox>);
static_assert(inbox_values_v<leader::OmegaDetector::Inbox>);
static_assert(inbox_values_v<leader::EnhancedLeaderService::Inbox>);
static_assert(inbox_values_v<baselines::PqlProcess::Inbox>);
static_assert(inbox_values_v<baselines::ChubbyService::Inbox>);
static_assert(inbox_values_v<baselines::MegastoreNode::Inbox>);
// Entries travel inside message vectors/optionals, whose copyability the
// inbox fold cannot see through.
static_assert(wire_value_v<core::Estimate>);
static_assert(wire_value_v<raft::LogEntry>);
static_assert(wire_value_v<vr::VrLogEntry>);

// --- Simulator envelope (sim/message.h) -------------------------------------
static_assert(wire_value_v<sim::Message>);

}  // namespace cht::audit
