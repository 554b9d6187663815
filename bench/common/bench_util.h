// Shared helpers for the experiment harnesses (bench/bench_*.cc).
#pragma once

#include <iostream>
#include <memory>
#include <string>

#include "harness/cluster.h"
#include "metrics/stats.h"
#include "metrics/table.h"

namespace cht::bench {

// Experiment headers/tables/artifacts are declared through ExperimentResult
// (common/experiment.h); this header keeps only the small formatting and
// history helpers.

inline std::string us(Duration d) {
  return metrics::Table::num(static_cast<std::int64_t>(d.to_micros()));
}

inline std::string ms2(Duration d) {
  return metrics::Table::num(d.to_millis_f(), 2);
}

// Latency of completed ops recorded in a history, split by read/RMW.
struct SplitLatencies {
  metrics::LatencyRecorder reads;
  metrics::LatencyRecorder rmws;
};

inline SplitLatencies split_latencies(const object::ObjectModel& model,
                                      const checker::HistoryRecorder& history) {
  SplitLatencies out;
  for (const auto& op : history.ops()) {
    if (!op.completed()) continue;
    if (model.is_read(op.op)) {
      out.reads.record(op.latency());
    } else {
      out.rmws.record(op.latency());
    }
  }
  return out;
}

}  // namespace cht::bench
