// Simulation driver: owns the event queue, network, clocks and processes.
//
// Usage:
//   Simulation sim(SimulationConfig{...});
//   sim.add_process(std::make_unique<MyProcess>(...));  // n times
//   sim.start();
//   sim.run_until(RealTime::micros(...));               // or run_until(pred)
//
// Fault injection: crash(p), set_clock_offset(p, d), network().set_link_down.
// Determinism: all randomness comes from the seed in SimulationConfig.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/storage.h"
#include "sim/trace.h"

namespace cht::sim {

struct SimulationConfig {
  std::uint64_t seed = 1;
  NetworkConfig network;
  // Clocks are synchronized within epsilon of each other: each process's
  // offset is drawn uniformly from [-epsilon/2, +epsilon/2].
  Duration epsilon = Duration::millis(1);
  // Per-process stable storage behaviour (sync latency, crash-time loss of
  // unsynced writes).
  StorageConfig storage;
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig config);

  // Adds a cluster member; returns its id. All processes must be added
  // before start(). The process's clock offset is drawn from the seed.
  ProcessId add_process(std::unique_ptr<Process> process);

  // Adds a client process: a full simulation participant (clock, storage
  // slot, network links) that is NOT part of the replicated cluster. Client
  // ids follow the replica ids, and every process — replica or client — is
  // attached with cluster_size() equal to the replica count, so quorum math
  // and Process::broadcast never see clients. Clients must be added after
  // every add_process() call (enforced), preserving replica clock-offset
  // draws of client-free seeds.
  ProcessId add_client(std::unique_ptr<Process> process);

  // Re-attaches ids/cluster size and calls on_start on every process.
  void start();

  // --- Execution ----------------------------------------------------------
  void step() { queue_.step(); }
  void run_until(RealTime deadline);
  // Runs until pred() holds (checked after each event) or deadline passes.
  // Returns true iff pred() held.
  bool run_until(const std::function<bool()>& pred, RealTime deadline);
  RealTime now() const { return queue_.now(); }

  // Schedules an arbitrary callback on the simulation timeline (used for
  // fault schedules and workload generators).
  EventHandle at(RealTime when, std::function<void()> fn) {
    return queue_.schedule(when, std::move(fn));
  }
  EventHandle after(Duration delay, std::function<void()> fn) {
    return queue_.schedule(queue_.now() + delay, std::move(fn));
  }

  // --- Fault injection ----------------------------------------------------
  void crash(ProcessId p);
  void set_clock_offset(ProcessId p, Duration offset);

  // Replaces a crashed process with a fresh incarnation sharing its id and
  // stable storage, then calls on_restart() on it. The old incarnation is
  // parked (not destroyed): the queue still reads its crashed flag to skip
  // its queued timers.
  void restart(ProcessId p, std::unique_ptr<Process> fresh);

  // True iff p is currently crashed OR crashed at any point at or after t
  // (even if since restarted). Used by liveness checking: an operation in
  // flight across a crash may legitimately never complete.
  bool crashed_at_or_after(ProcessId p, RealTime t) const;

  // Number of restarts slot p has been through (0 for the original
  // incarnation). Recovery code namespaces identifiers by this so a fresh
  // incarnation never reuses an OperationId without a per-op fsync.
  int incarnation(ProcessId p) const { return incarnations_.at(p.index()); }

  // --- Access -------------------------------------------------------------
  int n() const { return static_cast<int>(processes_.size()); }
  // Replicated-cluster size (excludes clients); what every process is
  // attached with as Process::cluster_size().
  int cluster_n() const { return cluster_n_; }
  Process& process(ProcessId p) { return *processes_.at(p.index()); }
  const Process& process(ProcessId p) const {
    return *processes_.at(p.index());
  }
  template <class T>
  T& process_as(ProcessId p) {
    T* typed = dynamic_cast<T*>(&process(p));
    CHT_ASSERT(typed != nullptr, "process type mismatch");
    return *typed;
  }
  template <class T>
  const T& process_as(ProcessId p) const {
    const T* typed = dynamic_cast<const T*>(&process(p));
    CHT_ASSERT(typed != nullptr, "process type mismatch");
    return *typed;
  }
  Network& network() { return network_; }
  EventQueue& queue() { return queue_; }
  Clock& clock(ProcessId p) { return clocks_.at(p.index()); }
  StableStorage& storage(ProcessId p) { return *storages_.at(p.index()); }
  Rng& rng() { return rng_; }
  Trace& trace() { return trace_; }
  const SimulationConfig& config() const { return config_; }

 private:
  friend class Process;
  void deliver(const Message& message);
  ProcessId add_slot(std::unique_ptr<Process> process);

  SimulationConfig config_;
  Rng rng_;
  EventQueue queue_;
  Network network_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Clock> clocks_;
  // One storage per process slot; outlives process incarnations.
  std::vector<std::unique_ptr<StableStorage>> storages_;
  std::vector<std::optional<RealTime>> last_crash_;
  std::vector<int> incarnations_;
  // Replaced incarnations. Their queued timers name them as owners, so
  // they stay alive (permanently crashed) until the simulation dies.
  std::vector<std::unique_ptr<Process>> graveyard_;
  Trace trace_;
  bool started_ = false;
  int cluster_n_ = 0;
};

}  // namespace cht::sim
