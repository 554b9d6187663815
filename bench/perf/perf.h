// bench_perf internals shared by the four workloads: the metric catalogue,
// the segment loop, wall-clock spans, per-layer timing sums and the timed
// delivery probe. README.md explains every metric.
//
// Everything here sits *outside* the layers it measures: spans wrap public
// calls (the Cluster constructor, Cluster::submit, EventQueue::step,
// Process::on_message, chaos::run_one, check_linearizable), so the program
// under test is the unmodified library build.
#pragma once

#include <array>
#include <cstdint>
#include <ctime>
#include <iosfwd>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "checker/history.h"
#include "metrics/registry.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace cht::perf {

// Heap allocations made by the whole process so far (the counting operator
// new in main.cc). A workload runs on one thread, so the count of a window
// is the difference of two reads and repeats exactly for a given binary.
std::uint64_t allocations();

// The benchmark's stopwatch, in host nanoseconds. Nothing it returns reaches
// a simulation. It reads the host clock with timespec_get rather than a
// std::chrono clock because detlint rule D1 reserves those for
// src/common/time.h, where no simulated component can reach them, and its
// allowlist does not yet name this directory.
inline std::int64_t wall_ns() {
  std::timespec ts{};
  std::timespec_get(&ts, TIME_UTC);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// kSim: simulated-time quantity. kCount: count or ratio of counts. kWall:
// wall-clock time or memory. kSim and kCount metrics repeat exactly for a
// seed, and the traced run must reproduce them.
enum class Kind { kSim, kCount, kWall };
const char* kind_name(Kind kind);

struct MetricSpec {
  std::string name;
  std::string unit;
  Kind kind;
  bool end_to_end;
};

// Every metric the bench emits, end-to-end first. Each workload reports each
// one; a layer the workload does not reach reports 0.
const std::vector<MetricSpec>& catalogue();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  // Wall-clock budget of one run. Segments past the deterministic window
  // run until it is spent; they feed only the wall-clock medians.
  double seconds = 0.0;
  bool traced = false;
};

struct WorkloadResult {
  std::string workload;
  int segments = 0;  // segments run in total
  int window = 0;    // leading segments behind the kSim and kCount metrics
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks, distinct
  std::map<std::string, double> values;

  void error(const std::string& message);
  // Asserts that `name` is in the catalogue.
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  bool correct() const { return errors.empty() && failed == 0; }
};

// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// Runs segment(0), segment(1), ... until `result.window` segments are done
// and `seconds` of wall time have passed, and sets result.segments.
// Segments past the window repeat its inputs (segment i runs input
// i % window), so the wall-clock medians compare like with like and a run
// only ever touches the window's seeds. peak_rss_mb is read when the window
// ends: the repeats' number depends on the machine's speed, and each one
// can leave the heap a little more fragmented.
template <class Fn>
void run_segments(WorkloadResult& result, double seconds, Fn segment) {
  const std::int64_t start = wall_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  int i = 0;
  while (i < result.window) segment(i++);
  result.set("peak_rss_mb", peak_rss_mb());
  while (wall_ns() - start < budget) segment(i++);
  result.segments = i;
}

// A wall-clock metric of a run (a throughput or a set-up time): per input,
// the best of its repeats, then the median over inputs. Other work on the
// machine only ever slows a segment down, and on a shared host it does so
// for seconds at a time, so the best repeat is the steadiest estimate of an
// input's own cost.
class BestOfRepeats {
 public:
  enum Better { kHigher, kLower };
  BestOfRepeats(int inputs, Better better)
      : better_(better), best_(static_cast<std::size_t>(inputs), -1.0) {}
  // `value` must not be negative.
  void add(int segment, double value) {
    double& best = best_[static_cast<std::size_t>(segment) % best_.size()];
    if (best < 0 || (better_ == kHigher ? value > best : value < best)) {
      best = value;
    }
  }
  double median() const;

 private:
  Better better_;
  std::vector<double> best_;  // -1 until the input has run
};

// Nearest-rank percentile; sorts `samples` in place; 0 when empty.
double percentile(std::vector<double>& samples, double q);
double median(std::vector<double> samples);
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Tracing -----------------------------------------------------------------

// Receivers of a delivered message, for dispatch timing. Replicas are
// classed by stack; every process past the replicas is a client.
enum Dispatch { kCore, kClient, kRaft, kVr, kDispatchClasses };
inline constexpr const char* kDispatchNames[kDispatchClasses] = {
    "core", "client", "raft", "vr"};
Dispatch dispatch_class(const std::string& protocol);

struct Timing {
  std::int64_t count = 0;
  std::int64_t ns = 0;
  void add(std::int64_t d) {
    ++count;
    ns += d;
  }
  double mean_ns() const { return ratio(static_cast<double>(ns), static_cast<double>(count)); }
};

// Segment- and phase-level spans, kept one record each and written as
// Chrome Trace Event JSON, plus timing sums for the per-event and
// per-message calls, which are aggregated rather than kept. Records nothing
// when off. The span buffer is reserved up front so that recording a span
// does not allocate inside an allocation-counting window.
class Tracer {
 public:
  explicit Tracer(bool on);

  bool on() const { return on_; }
  // Opens a span whose parent is the innermost open one; -1 when off.
  int open(const char* name, int segment);
  void close(int span);
  // Adds a finished span measured by the caller; -1 when off.
  int record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
             int parent, int segment);
  void write_chrome_json(std::ostream& out, const WorkloadResult& result) const;

  Timing step;    // EventQueue::step in the bench's drain loop
  Timing submit;  // Cluster::submit and ClusterAdapter::submit
  std::array<Timing, kDispatchClasses> dispatch;  // Process::on_message

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int segment;
  };
  bool on_;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int segment)
      : tracer_(tracer), id_(tracer.open(name, segment)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// Times Process::on_message: replaces the network's delivery callback with
// a copy of Simulation::deliver (same crashed-receiver check, same call)
// wrapped in clock reads. Must outlive every delivery of the simulation.
class TimedDelivery {
 public:
  TimedDelivery(Tracer& tracer, Dispatch replica_class)
      : tracer_(tracer), replica_class_(replica_class) {}
  TimedDelivery(const TimedDelivery&) = delete;
  TimedDelivery& operator=(const TimedDelivery&) = delete;
  void install(sim::Simulation& sim);

 private:
  void deliver(const sim::Message& message);
  Tracer& tracer_;
  Dispatch replica_class_;
  sim::Simulation* sim_ = nullptr;
};

// Drives the event queue with the loop of Simulation::run_until(pred,
// deadline), counting events and, when tracing, timing each step.
template <class Pred>
bool drain(sim::Simulation& sim, RealTime deadline, Tracer& tracer,
           std::int64_t& events, Pred pred) {
  if (pred()) return true;
  sim::EventQueue& queue = sim.queue();
  while (!queue.empty() && queue.next_event_time() <= deadline) {
    if (tracer.on()) {
      const std::int64_t t0 = wall_ns();
      queue.step();
      tracer.step.add(wall_ns() - t0);
    } else {
      queue.step();
    }
    ++events;
    if (pred()) return true;
  }
  return false;
}

// --- Layer counts ------------------------------------------------------------

// Message families: the type-name prefix before the first dot
// ("core.prepare" is core). Unknown prefixes count only in the total.
inline constexpr const char* kFamilies[] = {"core",   "els",  "omega",
                                            "client", "raft", "vr"};

struct NetCounts {
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
  std::array<std::int64_t, std::size(kFamilies)> by_family{};

  static NetCounts of(const sim::MessageStats& stats);
  NetCounts& operator+=(const NetCounts& other);
  NetCounts& operator-=(const NetCounts& other);
};

struct StorageCounts {
  std::int64_t fsyncs = 0;
  std::int64_t stall_us = 0;
  std::int64_t flushes = 0;
  std::int64_t flushed = 0;  // sum of flush widths

  static StorageCounts of(sim::Simulation& sim, int replicas);
  StorageCounts& operator+=(const StorageCounts& other);
  StorageCounts& operator-=(const StorageCounts& other);
};

// What the layers did during the measured phases of the window.
struct LayerCounts {
  std::int64_t ops = 0;   // operations completed
  std::int64_t rmws = 0;  // of which RMWs
  std::int64_t events = 0;
  std::uint64_t allocs = 0;
  NetCounts net;
  StorageCounts storage;

  LayerCounts& operator+=(const LayerCounts& other);
};

// Sets the sim, net, storage, mem, dispatch and client.submit_ns metrics.
void set_layer_metrics(WorkloadResult& result, const LayerCounts& counts,
                       const Tracer& tracer);
// Sets the core, leader.init_ms_p50 and client ratio metrics from a merged
// registry of the window.
void set_registry_metrics(WorkloadResult& result,
                          const metrics::Registry& merged);

// Concurrent-window widths of a history: at each invocation, how many
// operations are open (invoked and not yet responded), itself included.
std::vector<double> window_widths(const std::vector<checker::HistoryOp>& ops);

// --- Workloads ---------------------------------------------------------------

WorkloadResult run_serving(const Options& options, Tracer& tracer);
WorkloadResult run_chaos_sweep(const Options& options, Tracer& tracer);
WorkloadResult run_check_wide(const Options& options, Tracer& tracer);

}  // namespace cht::perf
