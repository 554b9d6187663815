// check-wide: the linearizability checker on its own. Each segment records
// one single-key chtread history as set-up (8 client sessions, 500 ops/s,
// half puts, about 1000 ops at full scale), then times
// checker::check_linearizable on it with no state budget. The simulator
// does none of the timed work, so a substrate change should leave this
// workload flat and a checker change shows only here. More sessions widen
// the concurrent window the search must untangle; at 16 a history can take
// minutes, so keep 8. The window's width, not the history's length, sets
// the cost per op; 2-second histories let a run repeat each of its 16
// inputs about five times, and varied less from run to run than 5-second
// ones.
#include <memory>
#include <string>
#include <vector>

#include "checker/linearizability.h"
#include "segment.h"

namespace cht::perf {

WorkloadResult run_check_wide(const Options& options, Tracer& tracer) {
  Shape shape;
  shape.rate = 500;
  shape.read_fraction = 0.5;
  shape.keys = 1;
  shape.clients = 8;
  shape.length = Duration::seconds(options.smoke ? 1 : 2);
  const int window = options.smoke ? 1 : 16;

  WorkloadResult result;
  result.workload = options.workload;
  result.window = window;
  std::vector<double> reads_ms, rmws_ms, builds_ms, widths;
  BestOfRepeats rates(window, BestOfRepeats::kHigher);
  BestOfRepeats setups_s(window, BestOfRepeats::kLower);
  LayerCounts counts;
  metrics::Registry merged;
  std::int64_t checked_ops = 0;
  std::int64_t check_ns = 0;
  std::uint64_t check_allocs = 0;
  const object::KVObject model;

  run_segments(result, options.seconds, [&](int i) {
    ScopedSpan segment_span(tracer, "segment", i);
    const bool in_window = i < window;
    const std::uint64_t seed =
        options.seed + static_cast<std::uint64_t>(i % window);
    const std::string where = "seed " + std::to_string(seed) + ": ";
    const std::int64_t t0 = wall_ns();
    std::vector<checker::HistoryOp> history;
    {
      ScopedSpan span(tracer, "record_history", i);
      Segment seg(shape, seed, i, tracer);
      if (!seg.setup()) {
        result.error(where + "no steady leader");
        return;
      }
      seg.run();
      if (seg.completed() != seg.requests().size()) {
        result.error(where + "recorded history has pending operations");
      }
      history = seg.cluster().history().ops();
      builds_ms.push_back(seg.build_s() * 1e3);
      if (in_window) {
        // Eight sessions cannot keep up with 500 ops/s, so requests queue
        // without bound and due-time latency would grow with the segment
        // length. The input the checker sees is the history, so latency
        // here is the history's, from dispatch to response.
        for (const auto& op : history) {
          if (!op.completed()) continue;
          (model.is_read(op.op) ? reads_ms : rmws_ms)
              .push_back(op.latency().to_millis_f());
        }
        counts += seg.counts();
        seg.cluster().merge_metrics_into(merged);
      }
    }
    setups_s.add(i, static_cast<double>(wall_ns() - t0) / 1e9);

    checker::LinearizabilityResult verdict;
    std::int64_t ns = 0;
    std::uint64_t allocs = 0;
    {
      ScopedSpan span(tracer, "check_linearizable", i);
      const std::uint64_t a0 = allocations();
      const std::int64_t c0 = wall_ns();
      verdict = checker::check_linearizable(model, history);
      ns = wall_ns() - c0;
      allocs = allocations() - a0;
    }
    ++result.attempted;
    if (!verdict.linearizable || !verdict.decided) {
      ++result.failed;
      result.error(where + "history not linearizable: " + verdict.explanation);
    }
    rates.add(i, static_cast<double>(history.size()) /
                     (static_cast<double>(ns) / 1e9));
    if (in_window) {
      checked_ops += static_cast<std::int64_t>(history.size());
      check_ns += ns;
      check_allocs += allocs;
      for (const double w : window_widths(history)) widths.push_back(w);
    }
  });

  // Simulated-time and layer metrics describe the recorded histories; the
  // wall-clock throughput and checker.* describe the check.
  result.set("read_p50_ms", percentile(reads_ms, 0.50));
  result.set("read_p99_ms", percentile(reads_ms, 0.99));
  result.set("rmw_p50_ms", percentile(rmws_ms, 0.50));
  result.set("rmw_p99_ms", percentile(rmws_ms, 0.99));
  result.set("msgs_per_op", ratio(static_cast<double>(counts.net.sent),
                                  static_cast<double>(counts.ops)));
  result.set("ops_per_s", rates.median());
  result.set("setup_s", setups_s.median());
  set_layer_metrics(result, counts, tracer);
  set_registry_metrics(result, merged);
  result.set("leader.changes",
             static_cast<double>(merged.value("became_leader")) / window);
  result.set("harness.build_ms", median(builds_ms));
  result.set("checker.us_per_op",
             ratio(static_cast<double>(check_ns) / 1e3,
                   static_cast<double>(checked_ops)));
  result.set("checker.allocs_per_op",
             ratio(static_cast<double>(check_allocs),
                   static_cast<double>(checked_ops)));
  result.set("checker.window_p50", percentile(widths, 0.50));
  result.set("checker.window_max", percentile(widths, 1.0));
  return result;
}

}  // namespace cht::perf
