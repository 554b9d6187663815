// harness::StackCluster<Stack>: a simulated cluster of one protocol stack's
// replicas (plus networked clients when config.clients > 0) that drives
// client operations and records a real-time history for the
// linearizability checker. It is also the ClusterAdapter the chaos subsystem
// tortures, so tests, benches, tools and the fuzzer all run one
// implementation; what differs per stack lives in harness/stacks.h.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker/history.h"
#include "client/client.h"
#include "harness/client_pool.h"
#include "harness/cluster_adapter.h"
#include "harness/cluster_config.h"
#include "harness/stacks.h"
#include "metrics/registry.h"
#include "object/object.h"
#include "sim/simulation.h"

namespace cht::harness {

template <class Stack>
class StackCluster final : public ClusterAdapter {
 public:
  using Replica = typename Stack::Replica;
  using Options = typename Stack::Options;

  // `options` is the stack's own knob — chtread's ConfigOverrides, Raft's
  // read mode, nothing for VR — kept for introspection: benches serialize
  // it into their artifacts.
  StackCluster(ClusterConfig config,
               std::shared_ptr<const object::ObjectModel> model,
               Options options = {});

  const ClusterConfig& config() const { return config_; }
  const Options& options() const { return options_; }
  // The config every replica, restarted incarnations included, is built
  // from.
  const typename Stack::Config& replica_config() const {
    return replica_config_;
  }
  Replica& replica(int i) { return sim_.process_as<Replica>(ProcessId(i)); }
  const Replica& replica(int i) const {
    return sim_.process_as<Replica>(ProcessId(i));
  }
  // The networked clients (valid indices: 0 .. config().clients - 1).
  client::Client& client(int j) { return clients_.client(j); }
  bool client_path() const { return clients_.enabled(); }

  // Submits an operation via process i, recording it in the history; `done`
  // also receives the response, after recording. With config.clients > 0
  // the operation instead travels through a networked client (slot i picks
  // client i % clients) and the history records the client's ProcessId and
  // session OperationId. Only RMWs carry an id in the history.
  void submit(int i, object::Operation op, Callback done);

  // Runs until some process leads. True on success.
  bool await_leader(Duration timeout);
  // chtread's names for leader() and await_leader(): its leader is the
  // steady leader.
  int steady_leader()
    requires std::same_as<Stack, ChtreadStack>
  {
    return leader();
  }
  bool await_steady_leader(Duration timeout)
    requires std::same_as<Stack, ChtreadStack>
  {
    return await_leader(timeout);
  }

  // --- ClusterAdapter ------------------------------------------------------
  const std::string& protocol() const override { return protocol_; }
  sim::Simulation& sim() override { return sim_; }
  int n() const override { return config_.n; }
  const object::ObjectModel& model() const override { return *model_; }
  checker::HistoryRecorder& history() override { return history_; }
  const checker::HistoryRecorder& history() const override {
    return history_;
  }
  void submit(int i, object::Operation op) override {
    submit(i, std::move(op), nullptr);
  }
  bool crashed(int process) const override;
  // Builds a fresh replica over the same model and config and hands it to
  // Simulation::restart, which reattaches it to slot i's surviving
  // StableStorage and calls on_restart().
  void restart(int i) override;
  bool recovering(int process) const override;
  std::vector<OperationId> committed_op_ids_of(int i) override;
  std::vector<OperationId> durable_op_ids_of(int i) override;
  std::vector<core::ClockSkewGuard::Transition> guard_transitions_of(
      int i) override;
  int leader() override;
  bool await_quiesce(Duration timeout) override;
  std::size_t submitted() const override { return submitted_; }
  std::size_t completed() const override { return completed_; }
  std::vector<std::string> protocol_invariants() override {
    return Stack::protocol_invariants(*this);
  }
  // The sum of every replica's `became_leader` counter.
  std::int64_t leadership_changes() override;
  // Also merges the clients' registries and each slot's storage counters.
  void merge_metrics_into(metrics::Registry& out) override;

 private:
  ClusterConfig config_;
  std::shared_ptr<const object::ObjectModel> model_;
  Options options_;
  std::string protocol_;
  typename Stack::Config replica_config_;
  sim::Simulation sim_;
  ClientPool clients_;
  checker::HistoryRecorder history_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
};

using Cluster = StackCluster<ChtreadStack>;
using RaftCluster = StackCluster<RaftStack>;
using VrCluster = StackCluster<VrStack>;

extern template class StackCluster<ChtreadStack>;
extern template class StackCluster<RaftStack>;
extern template class StackCluster<VrStack>;

}  // namespace cht::harness
