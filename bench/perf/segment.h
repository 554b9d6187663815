// One segment of an open-loop workload: a fresh chtread cluster (n = 5,
// delta = 10 ms, epsilon = 1 ms, 5 ms fsync with group commit, networked
// client sessions), a seeded Poisson arrival schedule generated in
// simulated time, optional leader crashes, and a drain.
//
// Requests are timed from their due time, the instant the generator hands
// them to Cluster::submit. The history instead records the instant a
// session first puts a request on the wire, so the gap between the two is
// the time a request waited behind its session's earlier one.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/cluster.h"
#include "object/kv_object.h"
#include "perf.h"

namespace cht::perf {

struct Shape {
  double rate = 0.0;  // arrivals per simulated second
  double read_fraction = 0.0;
  int keys = 1;  // uniform over this many keys
  int clients = 1;
  Duration length;  // arrival window
  // Crash the steady leader 4 s into the window and every 10 s after, and
  // restart it 2 s later.
  bool failover = false;
};

class Segment {
 public:
  struct Request {
    RealTime due;
    RealTime done;
    int client = 0;
    bool read = false;
    bool completed = false;
  };

  Segment(const Shape& shape, std::uint64_t seed, int index, Tracer& tracer);
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  // Builds the cluster and waits for its first steady leader; false if
  // none emerged.
  bool setup();
  // Runs the arrival window, then drains until every request completed or
  // the drain limit passed. `counts` covers exactly this phase.
  void run();

  harness::Cluster& cluster() { return *cluster_; }
  const std::vector<Request>& requests() const { return requests_; }
  const std::vector<RealTime>& crashes() const { return crashes_; }
  std::size_t completed() const { return completed_; }
  double build_s() const { return build_s_; }
  double setup_s() const { return setup_s_; }
  double run_s() const { return run_s_; }
  const LayerCounts& counts() const { return counts_; }

  // Per request, the instant its session dispatched it, read off the
  // history: a session dispatches in submission order, so the k-th history
  // entry of client j is the k-th request submitted to client j. Requests
  // never dispatched get RealTime::max().
  std::vector<RealTime> dispatch_times();
  // Longest stretch without a completed RMW in the 5 s after each crash.
  std::vector<double> failover_gaps_ms() const;

 private:
  void arrive();
  void crash_leader();

  Shape shape_;
  std::uint64_t seed_;
  int index_;
  Tracer& tracer_;
  Rng rng_;
  std::vector<std::string> keys_;
  TimedDelivery delivery_;
  std::unique_ptr<harness::Cluster> cluster_;
  std::vector<Request> requests_;
  std::vector<RealTime> crashes_;
  std::size_t completed_ = 0;
  RealTime load_end_;
  double build_s_ = 0.0;
  double setup_s_ = 0.0;
  double run_s_ = 0.0;
  LayerCounts counts_;
};

}  // namespace cht::perf
