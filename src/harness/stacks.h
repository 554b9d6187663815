// Per-stack traits for harness::StackCluster (harness/cluster.h). A traits
// type holds only what differs between the paper's algorithm, the Raft
// baseline and Viewstamped Replication: the replica and config types, how
// the config derives from ClusterConfig, and where a replica keeps its
// committed sequence. Everything else — history recording, client routing,
// metrics, restarts, and the op-id walks and safety checks over committed
// sequences — exists once, in StackCluster.
//
// committed(r) views, without copying, a replica's committed entries in
// order: the applied batches for chtread (a whole batch is one entry), the
// log prefix up to the commit point for Raft and VR. An entry is an
// operation with `id` and `op`, or a range of them, and compares with ==.
//
// Optional members, detected by StackCluster:
//   epoch(r)          the leadership epoch (term, view): among several live
//                     leaders the newest epoch wins. Without it there is one
//                     leader at a time.
//   stored(r)         every entry the replica durably holds, committed or
//                     not (default: committed(r)).
//   recovering(r)     the replica is still inside its recovery protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <ranges>
#include <string>

#include "core/config.h"
#include "core/replica.h"
#include "harness/cluster_config.h"
#include "object/object.h"
#include "raft/raft.h"
#include "vr/vr.h"

namespace cht::harness {

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
  static auto committed(const Replica& r) {
    return r.batches() | std::views::values |
           std::views::take(r.applied_upto());
  }
  // Durability counts every stored batch, not just the applied prefix: a
  // replica revived at heal time may durably hold batches past applied_upto
  // that it has not re-applied before the final-state check runs. The op is
  // not lost — applying is a matter of local progress, not of surviving the
  // crash.
  static auto stored(const Replica& r) {
    return r.batches() | std::views::values;
  }
};

struct RaftStack {
  using Replica = raft::RaftReplica;
  using Config = raft::RaftConfig;
  using Options = raft::ReadMode;

  static std::string name(Options mode) {
    return mode == raft::ReadMode::kLeaderLease ? "raft-lease" : "raft";
  }
  static Config make_config(const ClusterConfig& cluster, Options mode);
  static std::int64_t epoch(const Replica& r) { return r.term(); }
  static auto committed(const Replica& r) {
    return r.log() | std::views::take(r.commit_index());
  }
};

struct VrStack {
  using Replica = vr::VrReplica;
  using Config = vr::VrConfig;
  struct Options {};  // VR takes no per-experiment knob

  static std::string name(const Options&) { return "vr"; }
  static Config make_config(const ClusterConfig& cluster, const Options&) {
    return Config::defaults_for(cluster.delta);
  }
  static std::int64_t epoch(const Replica& r) { return r.view(); }
  static bool recovering(const Replica& r) {
    return r.status() == Replica::Status::kRecovering;
  }
  static auto committed(const Replica& r) {
    return r.log() | std::views::take(r.commit_number());
  }
};

}  // namespace cht::harness
