#include "harness/stacks.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "harness/cluster.h"

namespace cht::harness {
namespace {

// chtread and Raft take reads and RMWs through separate calls; only the RMW
// call returns an id.
template <class Replica>
OperationId submit_read_or_rmw(Replica& r, object::Operation op, bool is_read,
                               Callback done) {
  if (is_read) {
    r.submit_read(std::move(op), std::move(done));
    return {};
  }
  return r.submit_rmw(std::move(op), std::move(done));
}

// Ids of the non-read operations among a log's first `upto` entries.
template <class Entry>
std::vector<OperationId> log_prefix_ids(const std::vector<Entry>& log,
                                        std::int64_t upto,
                                        const object::ObjectModel& model) {
  std::vector<OperationId> ids;
  const std::size_t end = std::min(static_cast<std::size_t>(upto), log.size());
  for (std::size_t k = 0; k < end; ++k) {
    if (!model.is_read(log[k].op)) ids.push_back(log[k].id);
  }
  return ids;
}

// Ids of the non-read operations in a chtread replica's stored batches, or
// only in its applied prefix.
std::vector<OperationId> batch_op_ids(core::Replica& r,
                                      const object::ObjectModel& model,
                                      bool applied_only) {
  std::vector<OperationId> ids;
  const auto snap = r.snapshot();
  for (const auto& [k, batch] : snap.batches) {
    if (applied_only && k > snap.applied_upto) continue;
    for (const auto& bop : batch) {
      if (!model.is_read(bop.op)) ids.push_back(bop.id);
    }
  }
  return ids;
}

}  // namespace

// --- chtread (the paper's algorithm) ---------------------------------------

core::Config ChtreadStack::make_config(const ClusterConfig& cluster,
                                       const Options& options) {
  core::Config config =
      core::Config::defaults_for(cluster.delta, cluster.epsilon);
  config.clock_guard.enabled = cluster.clock_guard;
  options.apply(config);
  return config;
}

OperationId ChtreadStack::submit(Replica& r, object::Operation op,
                                 bool is_read, Callback done) {
  return submit_read_or_rmw(r, std::move(op), is_read, std::move(done));
}

std::vector<OperationId> ChtreadStack::committed_op_ids(
    Replica& r, const object::ObjectModel& model) {
  return batch_op_ids(r, model, /*applied_only=*/true);
}

// Durability counts everything the replica's batch store carries, not just
// the applied prefix: a replica revived at heal time may durably hold
// batches past applied_upto that it has not re-applied before the
// final-state check runs. The op is not lost — applying is a matter of
// local progress, not of surviving the crash.
std::vector<OperationId> ChtreadStack::durable_op_ids(
    Replica& r, const object::ObjectModel& model) {
  return batch_op_ids(r, model, /*applied_only=*/false);
}

std::vector<std::string> ChtreadStack::protocol_invariants(
    StackCluster<ChtreadStack>& cluster) {
  std::vector<std::string> violations;
  // At most one steady leader among survivors (post-stabilization there
  // must not be two processes both passing the AmLeader check).
  int steady = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    auto& r = cluster.replica(i);
    if (!r.crashed() && r.is_steady_leader()) ++steady;
  }
  if (steady > 1) {
    violations.push_back("chtread: " + std::to_string(steady) +
                         " simultaneous steady leaders");
  }
  // Committed-batch agreement: batches applied by two survivors must be
  // identical (the "pre-determined order, the same for all processes").
  for (int i = 0; i < cluster.n(); ++i) {
    if (cluster.replica(i).crashed()) continue;
    const auto si = cluster.replica(i).snapshot();
    for (int j = i + 1; j < cluster.n(); ++j) {
      if (cluster.replica(j).crashed()) continue;
      const auto sj = cluster.replica(j).snapshot();
      const auto upto = std::min(si.applied_upto, sj.applied_upto);
      const auto& a = si.batches;
      const auto& b = sj.batches;
      for (BatchNumber k = 1; k <= upto; ++k) {
        const auto ia = a.find(k);
        const auto ib = b.find(k);
        if (ia == a.end() || ib == b.end() || ia->second != ib->second) {
          std::ostringstream os;
          os << "chtread: applied batch " << k << " differs between p" << i
             << " and p" << j;
          violations.push_back(os.str());
        }
      }
    }
  }
  return violations;
}

// --- Raft (both read modes) ------------------------------------------------

raft::RaftConfig RaftStack::make_config(const ClusterConfig& cluster,
                                        Options mode) {
  raft::RaftConfig config = raft::RaftConfig::defaults_for(cluster.delta);
  config.read_mode = mode;
  config.clock_guard =
      core::ClockGuardConfig::defaults_for(cluster.delta, cluster.epsilon);
  config.clock_guard.enabled = cluster.clock_guard;
  return config;
}

OperationId RaftStack::submit(Replica& r, object::Operation op, bool is_read,
                              Callback done) {
  return submit_read_or_rmw(r, std::move(op), is_read, std::move(done));
}

std::vector<OperationId> RaftStack::committed_op_ids(
    Replica& r, const object::ObjectModel& model) {
  return log_prefix_ids(r.log(), r.commit_index(), model);
}

std::vector<std::string> RaftStack::protocol_invariants(
    StackCluster<RaftStack>& cluster) {
  std::vector<std::string> violations;
  // Election safety: at most one leader per term across survivors.
  std::map<std::int64_t, int> leaders_per_term;
  for (int i = 0; i < cluster.n(); ++i) {
    auto& r = cluster.replica(i);
    if (!r.crashed() && r.role() == raft::RaftReplica::Role::kLeader) {
      if (++leaders_per_term[r.term()] > 1) {
        violations.push_back("raft: two leaders in term " +
                             std::to_string(r.term()));
      }
    }
  }
  // Log matching on the committed prefix across survivors.
  for (int i = 0; i < cluster.n(); ++i) {
    if (cluster.replica(i).crashed()) continue;
    for (int j = i + 1; j < cluster.n(); ++j) {
      if (cluster.replica(j).crashed()) continue;
      const auto& a = cluster.replica(i).log();
      const auto& b = cluster.replica(j).log();
      const std::int64_t upto = std::min(cluster.replica(i).commit_index(),
                                         cluster.replica(j).commit_index());
      for (std::int64_t k = 0; k < upto; ++k) {
        if (a.at(static_cast<std::size_t>(k)) !=
            b.at(static_cast<std::size_t>(k))) {
          std::ostringstream os;
          os << "raft: committed log divergence at index " << k + 1
             << " between p" << i << " and p" << j;
          violations.push_back(os.str());
        }
      }
    }
  }
  return violations;
}

// --- Viewstamped Replication -----------------------------------------------

std::vector<OperationId> VrStack::committed_op_ids(
    Replica& r, const object::ObjectModel& model) {
  return log_prefix_ids(r.log(), r.commit_number(), model);
}

std::vector<std::string> VrStack::protocol_invariants(
    StackCluster<VrStack>& cluster) {
  std::vector<std::string> violations;
  // At most one normal-status primary per view across survivors.
  std::map<std::int64_t, int> primaries_per_view;
  for (int i = 0; i < cluster.n(); ++i) {
    auto& r = cluster.replica(i);
    if (!r.crashed() && r.is_primary()) {
      if (++primaries_per_view[r.view()] > 1) {
        violations.push_back("vr: two primaries in view " +
                             std::to_string(r.view()));
      }
    }
  }
  // Committed log prefixes agree across survivors.
  for (int i = 0; i < cluster.n(); ++i) {
    if (cluster.replica(i).crashed()) continue;
    for (int j = i + 1; j < cluster.n(); ++j) {
      if (cluster.replica(j).crashed()) continue;
      const auto& a = cluster.replica(i).log();
      const auto& b = cluster.replica(j).log();
      const std::int64_t upto = std::min(cluster.replica(i).commit_number(),
                                         cluster.replica(j).commit_number());
      for (std::int64_t k = 0; k < upto; ++k) {
        if (!(a.at(static_cast<std::size_t>(k)) ==
              b.at(static_cast<std::size_t>(k)))) {
          std::ostringstream os;
          os << "vr: committed prefix divergence at " << k + 1
             << " between p" << i << " and p" << j;
          violations.push_back(os.str());
        }
      }
    }
  }
  return violations;
}

}  // namespace cht::harness
