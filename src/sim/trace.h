// Structured event tracing.
//
// When enabled, the simulation records crashes, restarts and the
// protocol-level events processes report through Process::trace_event
// (leadership changes, commits, lease grants, span ends, ...). Disabled (the
// default) it costs one branch per event. Used for debugging failing seeds,
// for the trace tail of chaos repro artifacts and by chtread_sim --trace.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace cht::sim {

struct TraceEvent {
  RealTime at;
  ProcessId process;     // invalid for simulation-global events
  std::string category;  // e.g. "crash", "leader.become", "span.recovery"
  std::string detail;
};

class Trace {
 public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  void record(RealTime at, ProcessId process, std::string category,
              std::string detail) {
    if (!enabled_) return;
    events_.push_back(
        TraceEvent{at, process, std::move(category), std::move(detail)});
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  // Prints the last `limit` events (0 = all), optionally filtered to a
  // category prefix (e.g. "span." or "leader").
  void dump(std::ostream& os, std::size_t limit = 0,
            const std::string& category_prefix = "") const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace cht::sim
