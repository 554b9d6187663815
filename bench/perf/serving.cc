// read-mostly and rmw-failover: open-loop client traffic against chtread,
// one fresh cluster per segment (input i runs seed S + i).
#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.h"
#include "segment.h"

namespace cht::perf {
namespace {

struct Plan {
  Shape shape;
  int window = 0;
};

Plan plan_for(const std::string& workload, bool smoke) {
  Plan plan;
  Shape& s = plan.shape;
  s.clients = 256;
  if (workload == "read-mostly") {
    // The paper's target traffic: lease reads stay local, so the substrate
    // (event queue, network, client sessions) does most of the work and the
    // commit path little.
    s.rate = 5000;
    s.read_fraction = 0.95;
    s.keys = 1000;
    s.length = Duration::seconds(smoke ? 1 : 5);
    plan.window = smoke ? 1 : 16;
  } else {
    CHT_ASSERT(workload == "rmw-failover", "unknown serving workload");
    // What read-mostly skips: batching, Prepare/ack, covering fsyncs, reads
    // blocked on conflicting writes, re-election, the lease-expiry wait,
    // recovery replay, client retries and redirects. Requests keep
    // arriving on schedule while there is no leader.
    s.rate = 2000;
    s.read_fraction = 0.5;
    s.keys = 16;
    s.length = Duration::seconds(smoke ? 6 : 10);
    s.failover = true;
    plan.window = smoke ? 1 : 24;
  }
  return plan;
}

// Checks a KV history whose puts all write distinct values. Each rule is a
// necessary condition of linearizability, so any violation is a real bug,
// and the cost stays O(n log n) where checker::check_linearizable's search
// would have to untangle hundreds of concurrent sessions:
//   - every put answers "ok";
//   - a get returns "" or a value put to the same key by a put invoked
//     before the get responded;
//   - no put to that key started after the returned value's put responded
//     and responded before the get was invoked (for "": no put to the key
//     responded before the get was invoked), or the get was stale.
std::vector<std::string> check_reads(const std::vector<checker::HistoryOp>& ops) {
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  constexpr std::size_t kMaxErrors = 5;
  struct Put {
    std::int64_t invoked;
    std::int64_t responded;
  };
  struct Key {
    std::vector<Put> puts;  // by invocation
    std::vector<std::int64_t> min_responded_from;  // suffix minima
    std::map<std::string, Put> by_value;
  };
  std::map<std::string, Key> keys;
  std::vector<std::string> errors;
  const auto fail = [&errors](const checker::HistoryOp& op, const char* what) {
    if (errors.size() < kMaxErrors) {
      std::ostringstream os;
      os << what << ": " << op.op << " at " << op.invoked;
      errors.push_back(os.str());
    }
  };
  for (const auto& op : ops) {
    if (op.op.kind != "put") continue;
    const Put put{op.invoked.to_micros(),
                  op.completed() ? op.responded->to_micros() : kNever};
    Key& key = keys[object::arg_field(op.op.arg, 0)];
    key.puts.push_back(put);
    key.by_value[object::arg_field(op.op.arg, 1)] = put;
    if (op.completed() && *op.response != "ok") fail(op, "put answered other than ok");
  }
  for (auto& [name, key] : keys) {
    std::sort(key.puts.begin(), key.puts.end(),
              [](const Put& a, const Put& b) { return a.invoked < b.invoked; });
    key.min_responded_from.assign(key.puts.size() + 1, kNever);
    for (std::size_t i = key.puts.size(); i-- > 0;) {
      key.min_responded_from[i] =
          std::min(key.min_responded_from[i + 1], key.puts[i].responded);
    }
  }
  // Whether some put to `key` was invoked after `after` and responded
  // before `before`.
  const auto overwritten = [](const Key& key, std::int64_t after,
                              std::int64_t before) {
    const auto first = std::upper_bound(
        key.puts.begin(), key.puts.end(), after,
        [](std::int64_t t, const Put& p) { return t < p.invoked; });
    return key.min_responded_from[static_cast<std::size_t>(
               first - key.puts.begin())] < before;
  };
  for (const auto& op : ops) {
    if (op.op.kind != "get" || !op.completed()) continue;
    const auto it = keys.find(op.op.arg);
    const std::int64_t invoked = op.invoked.to_micros();
    if (op.response->empty()) {
      if (it != keys.end() &&
          overwritten(it->second, std::numeric_limits<std::int64_t>::min(),
                      invoked)) {
        fail(op, "stale empty read");
      }
      continue;
    }
    const Key* key = it == keys.end() ? nullptr : &it->second;
    const auto write =
        key == nullptr ? std::map<std::string, Put>::const_iterator{}
                       : key->by_value.find(*op.response);
    if (key == nullptr || write == key->by_value.end()) {
      fail(op, "read a value never written to its key");
    } else if (write->second.invoked > op.responded->to_micros()) {
      fail(op, "read a value written after it responded");
    } else if (overwritten(*key, write->second.responded, invoked)) {
      fail(op, "stale read");
    }
  }
  return errors;
}

}  // namespace

WorkloadResult run_serving(const Options& options, Tracer& tracer) {
  const Plan plan = plan_for(options.workload, options.smoke);
  WorkloadResult result;
  result.workload = options.workload;
  result.window = plan.window;

  std::vector<double> reads_ms, rmws_ms, waits_ms, gaps_ms;
  std::vector<double> builds_ms, widths;
  BestOfRepeats rates(plan.window, BestOfRepeats::kHigher);
  BestOfRepeats setups_s(plan.window, BestOfRepeats::kLower);
  LayerCounts counts;
  metrics::Registry merged;

  run_segments(result, options.seconds, [&](int i) {
    ScopedSpan segment_span(tracer, "segment", i);
    const std::uint64_t seed =
        options.seed + static_cast<std::uint64_t>(i % plan.window);
    const std::string where = "seed " + std::to_string(seed) + ": ";
    Segment seg(plan.shape, seed, i, tracer);
    if (!seg.setup()) {
      result.error(where + "no steady leader");
      return;
    }
    seg.run();
    const auto& requests = seg.requests();
    result.attempted += static_cast<std::int64_t>(requests.size());
    result.failed +=
        static_cast<std::int64_t>(requests.size() - seg.completed());
    setups_s.add(i, seg.setup_s());
    builds_ms.push_back(seg.build_s() * 1e3);
    rates.add(i, static_cast<double>(seg.completed()) / seg.run_s());
    const auto& history = seg.cluster().history().ops();
    {
      ScopedSpan span(tracer, "check_reads", i);
      for (const std::string& e : check_reads(history)) result.error(where + e);
    }
    if (i >= plan.window) return;

    const std::vector<RealTime> dispatched = seg.dispatch_times();
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const Segment::Request& req = requests[r];
      if (!req.completed) continue;
      (req.read ? reads_ms : rmws_ms).push_back((req.done - req.due).to_millis_f());
      waits_ms.push_back((dispatched[r] - req.due).to_millis_f());
    }
    for (const double g : seg.failover_gaps_ms()) gaps_ms.push_back(g);
    for (const double w : window_widths(history)) widths.push_back(w);
    counts += seg.counts();
    seg.cluster().merge_metrics_into(merged);
  });

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
             static_cast<double>(merged.value("became_leader")) / plan.window);
  result.set("leader.failover_gap_ms", median(gaps_ms));
  result.set("client.queue_wait_p99_ms", percentile(waits_ms, 0.99));
  result.set("harness.build_ms", median(builds_ms));
  result.set("checker.window_p50", percentile(widths, 0.50));
  result.set("checker.window_max", percentile(widths, 1.0));
  return result;
}

}  // namespace cht::perf
