// Per-stack traits for harness::StackCluster (harness/cluster.h). A traits
// type holds only what differs between the paper's algorithm, the Raft
// baseline and Viewstamped Replication: the replica and config types and how
// the config derives from ClusterConfig, how one operation is submitted
// directly at a replica, who leads, which operation ids a replica has
// committed, and the protocol's own safety invariants. Everything else —
// history recording, client routing, metrics, restarts — exists once, in
// StackCluster.
//
// Optional members, detected by StackCluster:
//   epoch(r)          the leadership epoch (term, view): among several live
//                     leaders the newest epoch wins. Without it the first
//                     leader found is the leader.
//   durable_op_ids    stored ids beyond the applied prefix (default: the
//                     committed ids).
//   recovering(r)     the replica is still inside its recovery protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/replica.h"
#include "harness/cluster_config.h"
#include "object/object.h"
#include "raft/raft.h"
#include "vr/vr.h"

namespace cht::harness {

template <class Stack>
class StackCluster;

// Completion callback every stack's client API takes.
using Callback = std::function<void(const object::Response&)>;

struct ChtreadStack {
  using Replica = core::Replica;
  using Config = core::Config;
  // The experiment's deviations from the derived core::Config (read policy,
  // commit gate, lease timing, ...).
  using Options = core::ConfigOverrides;

  static std::string name(const Options&) { return "chtread"; }
  static Config make_config(const ClusterConfig& cluster,
                            const Options& options);
  // Submits one operation at `r`; returns its id (a default id for reads).
  static OperationId submit(Replica& r, object::Operation op, bool is_read,
                            Callback done);
  static bool leads(Replica& r) { return r.is_steady_leader(); }
  static std::vector<OperationId> committed_op_ids(
      Replica& r, const object::ObjectModel& model);
  static std::vector<OperationId> durable_op_ids(
      Replica& r, const object::ObjectModel& model);
  static std::vector<std::string> protocol_invariants(
      StackCluster<ChtreadStack>& cluster);
};

struct RaftStack {
  using Replica = raft::RaftReplica;
  using Config = raft::RaftConfig;
  using Options = raft::ReadMode;

  static std::string name(Options mode) {
    return mode == raft::ReadMode::kLeaderLease ? "raft-lease" : "raft";
  }
  static Config make_config(const ClusterConfig& cluster, Options mode);
  static OperationId submit(Replica& r, object::Operation op, bool is_read,
                            Callback done);
  static bool leads(const Replica& r) {
    return r.role() == Replica::Role::kLeader;
  }
  static std::int64_t epoch(const Replica& r) { return r.term(); }
  static std::vector<OperationId> committed_op_ids(
      Replica& r, const object::ObjectModel& model);
  static std::vector<std::string> protocol_invariants(
      StackCluster<RaftStack>& cluster);
};

struct VrStack {
  using Replica = vr::VrReplica;
  using Config = vr::VrConfig;
  struct Options {};  // VR takes no per-experiment knob

  static std::string name(const Options&) { return "vr"; }
  static Config make_config(const ClusterConfig& cluster, const Options&) {
    return Config::defaults_for(cluster.delta);
  }
  // VR treats reads like RMWs: both travel through the log and get an id.
  static OperationId submit(Replica& r, object::Operation op,
                            bool /*is_read*/, Callback done) {
    return r.submit(std::move(op), std::move(done));
  }
  static bool leads(const Replica& r) { return r.is_primary(); }
  static std::int64_t epoch(const Replica& r) { return r.view(); }
  static bool recovering(const Replica& r) {
    return r.status() == Replica::Status::kRecovering;
  }
  static std::vector<OperationId> committed_op_ids(
      Replica& r, const object::ObjectModel& model);
  static std::vector<std::string> protocol_invariants(
      StackCluster<VrStack>& cluster);
};

}  // namespace cht::harness
