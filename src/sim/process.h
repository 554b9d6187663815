// Actor base class for simulated processes.
//
// A process reacts to messages and timers; handlers execute instantaneously
// in simulated time (the paper's lower bound on process speed is satisfied
// trivially; periodic work is modelled with explicit timers). Processes are
// subject to crash failures only: once crashed, a process receives no
// further events and sends no messages.
//
// The paper's per-process "three parallel threads" map onto this runtime as
// message handlers plus timers; blocking waits in the pseudocode become
// explicit state machines in subclasses.
//
// Messages are wire structs (sim/message.h): send() and broadcast() take the
// struct itself, and a subclass's on_message hands each delivery to its
// typed handlers through an Inbox.
//
// A process records what it observes in one place: the metric registry it
// owns (one per incarnation) and the simulation's trace, reached through
// trace_event and end_span. Subclasses register their metric handles where
// they declare them, e.g.
//   metrics::Counter* c_commits_ = &metrics().counter("commits");
//   metrics::Span span_round_{metrics().histogram("span.round_us")};
#pragma once

#include <concepts>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "common/types.h"
#include "metrics/registry.h"
#include "metrics/span.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/message.h"

namespace cht::sim {

class Simulation;
class StableStorage;

class Process {
 public:
  virtual ~Process() = default;

  ProcessId id() const { return id_; }
  int cluster_size() const { return n_; }
  bool crashed() const { return crashed_; }

  // --- Overridables -------------------------------------------------------
  virtual void on_start() {}
  virtual void on_message(const Message& message) = 0;
  virtual void on_crash() {}
  // Called instead of on_start() when this incarnation replaces a crashed
  // one (Simulation::restart). Recovery-aware processes override this to
  // replay their StableStorage before rejoining; the default treats a
  // restart like a cold start.
  virtual void on_restart() { on_start(); }

  // --- Services (valid after attachment to a Simulation) ------------------
  RealTime now_real() const;
  LocalTime now_local() const;  // this process's clock reading

  template <WireMessage T>
  void send(ProcessId to, T payload) {
    post(Message::of(id_, to, std::make_shared<const T>(std::move(payload))));
  }
  // Sends to every process except this one; all peers share one payload.
  template <WireMessage T>
  void broadcast(T payload) {
    const auto shared = std::make_shared<const T>(std::move(payload));
    for (int i = 0; i < n_; ++i) {
      if (i != id_.index()) post(Message::of(id_, ProcessId(i), shared));
    }
  }

  // Schedules `fn` at real time now + delay (models step timing / periodic
  // work). The handle can cancel the timer. No-op after crash.
  EventHandle schedule_after(Duration delay, std::function<void()> fn);

  // Schedules `fn` to run once this process's clock reads at least `when`.
  // Robust to clock adjustments: re-arms itself until the condition holds,
  // and the returned handle cancels it across re-arms.
  EventHandle schedule_at_local(LocalTime when, std::function<void()> fn);

  // The simulation's deterministic random stream (for randomized timeouts).
  Rng& rng() const;

  // This process's stable storage. Survives crashes and restarts (minus
  // whatever unsynced writes the crash lost); the only storage protocol
  // code may use — detlint rule D7 forbids direct file I/O in protocol dirs.
  StableStorage& storage() const;

  // How many restarts this process slot has been through (0 before any).
  // Useful for namespacing identifiers so they never collide across
  // incarnations without per-use fsyncs.
  int incarnation() const;

  // Syncs this process's stable storage, then runs `fn`. With the default
  // zero sync latency the continuation runs inline (no event scheduled);
  // with nonzero configured latency it runs once the device completes the
  // fsync — fsync cost is paid serially, so a sync issued while an earlier
  // one is still in flight queues behind it. Either way the written data is
  // durable from the moment of the call.
  void sync_storage(std::function<void()> fn = {});

  // Group-commit entry point for ack-critical durability: runs `fn` after a
  // sync() covering every write made before this call. With group commit
  // enabled (StorageConfig::group_commit), requests arriving while an
  // earlier sync's latency window is in flight coalesce into the single
  // next sync, whose completion releases all their continuations
  // back-to-back as one ack burst. With group commit disabled, or at zero
  // sync latency, each call is exactly sync_storage(fn).
  void request_sync(std::function<void()> fn);

  // This incarnation's metrics (inventory in docs/OBSERVABILITY.md). Never
  // read by protocol logic, so recording cannot change simulation
  // behaviour; a restart starts a fresh registry.
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  // Records a protocol-level trace event. The detail is `parts` joined
  // as-is, strings verbatim and integers in decimal; nothing is formatted
  // unless the simulation's trace is recording.
  template <class... Parts>
  void trace_event(std::string_view category, const Parts&... parts) const {
    if (!tracing()) return;
    std::string detail;
    (append_part(detail, parts), ...);
    record_trace(std::string(category), std::move(detail));
  }

  // Ends `span` on this process's clock. If the span was active, its
  // duration lands in the span's histogram and in the trace as
  // "span.<name>" with detail "us=<duration>".
  void end_span(metrics::Span& span, std::string_view name);

 protected:
  Process() = default;

 private:
  static void append_part(std::string& out, std::string_view part) {
    out += part;
  }
  template <std::integral T>
  static void append_part(std::string& out, T part) {
    out += std::to_string(part);
  }
  bool tracing() const;
  void record_trace(std::string category, std::string detail) const;

  friend class Simulation;
  void attach(Simulation* sim, ProcessId id, int n) {
    sim_ = sim;
    id_ = id;
    n_ = n;
  }
  void mark_crashed() { crashed_ = true; }

  // Stamps an envelope from this process and hands it to the network.
  void post(Message message);
  // When this process's clock will read `when`, but no earlier than now.
  RealTime real_time_at(LocalTime when) const;
  void start_group_sync();

  Simulation* sim_ = nullptr;
  ProcessId id_;
  int n_ = 0;
  bool crashed_ = false;
  metrics::Registry metrics_;
  // Group-commit state (request_sync): continuations awaiting the next
  // covering sync, and whether one is currently in flight. Dies with the
  // incarnation — a restart starts with a clean window, matching a real
  // process losing its in-memory commit queue.
  std::vector<std::function<void()>> sync_pending_;
  bool sync_in_flight_ = false;
};

}  // namespace cht::sim
