// harness::StackCluster<Stack>: a simulated cluster of one protocol stack's
// replicas (plus networked clients when config.clients > 0) that drives
// client operations and records a real-time history for the
// linearizability checker. It is also the ClusterAdapter the chaos subsystem
// tortures, so tests, benches, tools and the fuzzer all run one
// implementation; what differs per stack lives in harness/stacks.h.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checker/history.h"
#include "client/client.h"
#include "harness/cluster_adapter.h"
#include "harness/cluster_config.h"
#include "harness/stacks.h"
#include "metrics/registry.h"
#include "object/object.h"
#include "sim/simulation.h"

namespace cht::harness {

// What the cross-replica safety checks read from one live replica.
template <class Sequence>
struct LiveReplica {
  int process;
  bool leads;
  std::optional<std::int64_t> epoch;  // for a stack with epochs (term, view)
  Sequence committed;                 // Stack::committed(r)
};

// The cross-replica safety checks StackCluster::protocol_invariants runs
// over its live replicas, callable on hand-built ones. For every pair: not
// both leaders of one epoch, or of any time for a stack without epochs
// (EL1); and equal entries at every position of their common committed
// prefix (I1), the first difference reported. Returns the violations,
// prefixed with `protocol`.
template <class Sequence>
std::vector<std::string> safety_violations(
    std::string_view protocol, const std::vector<LiveReplica<Sequence>>& live) {
  std::vector<std::string> violations;
  for (auto a = live.begin(); a != live.end(); ++a) {
    for (auto b = a + 1; b != live.end(); ++b) {
      const auto report = [&](const std::string& what) {
        violations.push_back(std::string(protocol) + ": p" +
                             std::to_string(a->process) + " and p" +
                             std::to_string(b->process) + " " + what);
      };
      if (a->leads && b->leads && a->epoch == b->epoch) {
        report("both lead" +
               (a->epoch ? " epoch " + std::to_string(*a->epoch) : ""));
      }
      const auto [ea, eb] = std::ranges::mismatch(a->committed, b->committed);
      if (ea != std::ranges::end(a->committed) &&
          eb != std::ranges::end(b->committed)) {
        const auto entry =
            std::ranges::distance(std::ranges::begin(a->committed), ea) + 1;
        report("differ at committed entry " + std::to_string(entry));
      }
    }
  }
  return violations;
}

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
  // The networked clients (valid indices: 0 .. config().clients - 1),
  // added after the replicas so they never enter quorum math. Client j's
  // home replica is j % n, spreading the local-read fast path.
  client::Client& client(int j) {
    return sim_.process_as<client::Client>(ProcessId(config_.n + j));
  }
  bool client_path() const { return config_.clients > 0; }

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
  // safety_violations over the live replicas.
  std::vector<std::string> protocol_invariants() override;
  // The sum of every replica's `became_leader` counter.
  std::int64_t leadership_changes() override;
  // Merges every process's registry (clients included) and each slot's
  // storage counters.
  void merge_metrics_into(metrics::Registry& out) override;

 private:
  ClusterConfig config_;
  std::shared_ptr<const object::ObjectModel> model_;
  Options options_;
  std::string protocol_;
  typename Stack::Config replica_config_;
  sim::Simulation sim_;
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
