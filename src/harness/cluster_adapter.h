// ClusterAdapter: one uniform surface over every protocol stack — the
// paper's algorithm, the Raft baseline in both read modes and Viewstamped
// Replication. harness::StackCluster<Stack> (harness/cluster.h) implements
// it once for all of them.
//
// The nemesis, workload driver, seed sweeper and invariant registry are all
// written against this interface, so a fault schedule or a safety check is
// authored once and exercises all four stacks identically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker/history.h"
#include "common/time.h"
#include "core/clock_guard.h"
#include "metrics/registry.h"
#include "object/object.h"
#include "sim/simulation.h"

namespace cht::harness {

class ClusterAdapter {
 public:
  virtual ~ClusterAdapter() = default;

  virtual const std::string& protocol() const = 0;
  virtual sim::Simulation& sim() = 0;
  virtual int n() const = 0;
  virtual const object::ObjectModel& model() const = 0;
  virtual checker::HistoryRecorder& history() = 0;
  virtual const checker::HistoryRecorder& history() const = 0;

  // Submits a client operation via process `process`, recording it in the
  // history (reads and RMWs routed per the protocol's client API).
  virtual void submit(int process, object::Operation op) = 0;

  // Whether replica `process` is currently crashed. Indices at or beyond
  // n() denote networked clients (spec.client_path), which the nemesis never
  // crashes; implementations return false for them.
  virtual bool crashed(int process) const = 0;

  // Power-cycles crashed process `process` back up: a fresh replica instance
  // is attached to the slot's surviving StableStorage and runs the stack's
  // recovery path (on_restart). Asserts if the process is not crashed.
  virtual void restart(int process) = 0;

  // True while `process` is up but still inside its stack's recovery
  // protocol (VR's nonce recovery spans many message delays; storage-replay
  // recovery is instantaneous and never reports true). The nemesis counts
  // these as down for its crash budget: VR Revisited assumes at most a
  // minority of replicas are simultaneously failed-or-recovering, and a
  // budget blind to recovering nodes can legally drive every replica into
  // recovery — a permanent deadlock (nobody normal is left to respond), not
  // an implementation bug. Found by the power-cycle sweep, seed 4.
  virtual bool recovering(int /*process*/) const { return false; }

  // Ids of committed non-read operations at one replica, in the protocol's
  // commit order: applied-batch contents (chtread), the log prefix up to
  // commit_index (raft) or commit_number (vr). The exactly-once invariant
  // counts per-id occurrences in this sequence — an acked RMW appearing
  // twice at one replica means a retry was applied twice.
  virtual std::vector<OperationId> committed_op_ids_of(int replica) = 0;

  // Ids of *durable* non-read operations at one replica: everything the
  // replica's stable state still carries, whether or not it has been applied
  // yet. Defaults to the committed ids; chtread's are its stored batches'
  // contents, because a just-restarted replica may durably hold a
  // batch it has not re-applied when the final-state check runs (the applied
  // prefix momentarily understates what survived the crash). The durability
  // invariant consumes this; exactly-once keeps the strict applied prefix.
  virtual std::vector<OperationId> durable_op_ids_of(int replica) {
    return committed_op_ids_of(replica);
  }

  // Union over all currently-live (not crashed, not recovering) replicas.
  // The durability invariant checks every acknowledged write's id is in
  // here after the run.
  virtual std::vector<OperationId> committed_op_ids() {
    std::vector<OperationId> ids;
    for (int i = 0; i < n(); ++i) {
      if (crashed(i) || recovering(i)) continue;
      std::vector<OperationId> one = durable_op_ids_of(i);
      ids.insert(ids.end(), one.begin(), one.end());
    }
    return ids;
  }

  // Clock-guard suspect/requalified flips at one replica, in time order,
  // for the current incarnation (a restart starts a fresh, non-suspect
  // guard). Stacks without a guard (vr) return empty. The exposure-window
  // accounting in invariants.cc folds these into an all-replicas-suspect
  // timeline; benches derive detection latency from them.
  virtual std::vector<core::ClockSkewGuard::Transition> guard_transitions_of(
      int /*replica*/) {
    return {};
  }

  // The protocol's current notion of "the leader": steady leader (chtread),
  // highest-term leader (raft), normal-status primary (vr); -1 if none.
  // The leader-hunter nemesis profile targets whoever this returns.
  virtual int leader() = 0;

  virtual bool await_quiesce(Duration timeout) = 0;
  virtual std::size_t submitted() const = 0;
  virtual std::size_t completed() const = 0;

  // Cross-replica safety invariants over the live replicas' final state: at
  // most one leader per epoch (EL1), and any two committed sequences agree
  // entry by entry on their common prefix (I1). StackCluster checks them
  // once for every stack (harness::safety_violations). Returns
  // human-readable violation descriptions; empty means all hold.
  virtual std::vector<std::string> protocol_invariants() = 0;

  // Total leadership acquisitions (reigns begun / terms won / views led)
  // across the cluster — a cheap "how eventful was this run" metric.
  virtual std::int64_t leadership_changes() = 0;

  // Merges every process's metric registry (counters, protocol-phase span
  // histograms) into `out`. Read-only aggregation; safe at any quiet point.
  virtual void merge_metrics_into(metrics::Registry& out) = 0;

  void run_for(Duration d) { sim().run_until(sim().now() + d); }
};

// Decorator base for adapter wrappers: owns an inner adapter and forwards
// every virtual. Derive and override only what you need (fault injection in
// chaos/evil.h, metrics capture in tests and benches) — new ClusterAdapter
// virtuals then flow through existing decorators automatically.
class ForwardingAdapter : public ClusterAdapter {
 public:
  explicit ForwardingAdapter(std::unique_ptr<ClusterAdapter> inner)
      : inner_(std::move(inner)) {}

  const std::string& protocol() const override { return inner_->protocol(); }
  sim::Simulation& sim() override { return inner_->sim(); }
  int n() const override { return inner_->n(); }
  const object::ObjectModel& model() const override { return inner_->model(); }
  checker::HistoryRecorder& history() override { return inner_->history(); }
  const checker::HistoryRecorder& history() const override {
    return inner_->history();
  }
  void submit(int process, object::Operation op) override {
    inner_->submit(process, std::move(op));
  }
  bool crashed(int process) const override { return inner_->crashed(process); }
  void restart(int process) override { inner_->restart(process); }
  bool recovering(int process) const override {
    return inner_->recovering(process);
  }
  std::vector<OperationId> committed_op_ids_of(int replica) override {
    return inner_->committed_op_ids_of(replica);
  }
  std::vector<OperationId> durable_op_ids_of(int replica) override {
    return inner_->durable_op_ids_of(replica);
  }
  std::vector<OperationId> committed_op_ids() override {
    return inner_->committed_op_ids();
  }
  std::vector<core::ClockSkewGuard::Transition> guard_transitions_of(
      int replica) override {
    return inner_->guard_transitions_of(replica);
  }
  int leader() override { return inner_->leader(); }
  bool await_quiesce(Duration timeout) override {
    return inner_->await_quiesce(timeout);
  }
  std::size_t submitted() const override { return inner_->submitted(); }
  std::size_t completed() const override { return inner_->completed(); }
  std::vector<std::string> protocol_invariants() override {
    return inner_->protocol_invariants();
  }
  std::int64_t leadership_changes() override {
    return inner_->leadership_changes();
  }
  void merge_metrics_into(metrics::Registry& out) override {
    inner_->merge_metrics_into(out);
  }

 protected:
  ClusterAdapter& inner() { return *inner_; }
  const ClusterAdapter& inner() const { return *inner_; }

 private:
  std::unique_ptr<ClusterAdapter> inner_;
};

}  // namespace cht::harness
