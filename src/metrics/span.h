// Protocol-phase spans: named durations that start in one event handler and
// end in another (a DoOps round, a leader reign, a recovery). Because a
// phase crosses many simulator events, a span is begun and ended by hand.
// It feeds a `Histogram`; processes end spans through
// `sim::Process::end_span`, which also traces "span.<name>" so spans land in
// `sim::Trace` next to the protocol events.
#pragma once

#include <cstdint>

#include "metrics/registry.h"

namespace cht::metrics {

// A manually delimited phase. `begin(now)` arms it, `end(now)` records
// now - begin into the histogram and returns the duration (or -1 if the span
// was not active — e.g. a commit observed by a replica that never ran the
// prepare). Re-arming an active span restarts it; `cancel()` disarms without
// recording (e.g. a DoOps round abandoned on abdication).
class Span {
 public:
  explicit Span(Histogram& histogram) : histogram_(&histogram) {}

  bool active() const { return active_; }

  void begin(std::int64_t now) {
    begin_ = now;
    active_ = true;
  }

  std::int64_t end(std::int64_t now) {
    if (!active_) return -1;
    active_ = false;
    std::int64_t elapsed = now - begin_;
    if (elapsed < 0) elapsed = 0;
    histogram_->record(elapsed);
    return elapsed;
  }

  void cancel() { active_ = false; }

 private:
  Histogram* histogram_;
  std::int64_t begin_ = 0;
  bool active_ = false;
};

}  // namespace cht::metrics
