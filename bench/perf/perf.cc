#include "perf.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string_view>

#include "common/assert.h"
#include "metrics/json.h"

namespace cht::perf {

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kSim: return "sim";
    case Kind::kCount: return "count";
    case Kind::kWall: return "wall";
  }
  return "?";
}

const std::vector<MetricSpec>& catalogue() {
  static const std::vector<MetricSpec> specs = [] {
    const Kind sim = Kind::kSim;
    const Kind count = Kind::kCount;
    const Kind wall = Kind::kWall;
    std::vector<MetricSpec> s = {
        {"read_p50_ms", "ms", sim, true},
        {"read_p99_ms", "ms", sim, true},
        {"rmw_p50_ms", "ms", sim, true},
        {"rmw_p99_ms", "ms", sim, true},
        {"msgs_per_op", "msgs/op", count, true},
        {"ops_per_s", "1/s", wall, true},
        {"setup_s", "s", wall, true},
        {"peak_rss_mb", "MB", wall, true},
        {"sim.events_per_op", "events/op", count, false},
        {"sim.step_ns", "ns", wall, false},
        {"sim.self_frac", "ratio", wall, false},
        {"net.msgs_per_op.core", "msgs/op", count, false},
        {"net.msgs_per_op.els", "msgs/op", count, false},
        {"net.msgs_per_op.omega", "msgs/op", count, false},
        {"net.msgs_per_op.client", "msgs/op", count, false},
        {"net.msgs_per_op.raft", "msgs/op", count, false},
        {"net.msgs_per_op.vr", "msgs/op", count, false},
        {"net.delivered_per_op", "msgs/op", count, false},
        {"net.dropped_frac", "ratio", count, false},
        {"storage.fsyncs_per_rmw", "fsyncs/rmw", count, false},
        {"storage.flush_width_mean", "writes/flush", count, false},
        {"storage.sync_stall_ms_per_rmw", "ms/rmw", sim, false},
        {"mem.allocs_per_msg", "allocs/msg", count, false},
        {"mem.allocs_per_op", "allocs/op", count, false},
        {"dispatch.handler_ns_per_msg.core", "ns", wall, false},
        {"dispatch.handler_ns_per_msg.client", "ns", wall, false},
        {"dispatch.handler_ns_per_msg.raft", "ns", wall, false},
        {"dispatch.handler_ns_per_msg.vr", "ns", wall, false},
        {"core.rmws_per_batch", "rmws/batch", count, false},
        {"core.reads_blocked_frac", "ratio", count, false},
        {"core.read_block_p99_ms", "ms", sim, false},
        {"core.prepare_p50_ms", "ms", sim, false},
        {"core.gate_p50_ms", "ms", sim, false},
        {"leader.init_ms_p50", "ms", sim, false},
        {"leader.changes", "count", count, false},
        {"leader.failover_gap_ms", "ms", sim, false},
        {"client.queue_wait_p99_ms", "ms", sim, false},
        {"client.retries_per_op", "retries/op", count, false},
        {"client.redirects_per_op", "redirects/op", count, false},
        {"client.submit_ns", "ns", wall, false},
        {"harness.build_ms", "ms", wall, false},
    };
    for (const char* stack : {"chtread", "raft", "vr"}) {
      const std::string p = std::string("chaos.") + stack;
      s.push_back({p + ".ms_per_seed", "ms", wall, false});
      s.push_back({p + ".build_frac", "ratio", wall, false});
      s.push_back({p + ".simulate_frac", "ratio", wall, false});
      s.push_back({p + ".check_frac", "ratio", wall, false});
      s.push_back({p + ".msgs_per_seed", "msgs", count, false});
      s.push_back({p + ".allocs_per_msg", "allocs/msg", count, false});
    }
    s.push_back({"checker.us_per_op", "us", wall, false});
    s.push_back({"checker.allocs_per_op", "allocs/op", count, false});
    s.push_back({"checker.window_p50", "ops", count, false});
    s.push_back({"checker.window_max", "ops", count, false});
    s.push_back({"trace.overhead_frac", "ratio", wall, false});
    return s;
  }();
  return specs;
}

void WorkloadResult::error(const std::string& message) {
  if (std::find(errors.begin(), errors.end(), message) == errors.end()) {
    errors.push_back(message);
  }
}

void WorkloadResult::set(const std::string& name, double value) {
  const auto& specs = catalogue();
  const bool known =
      std::any_of(specs.begin(), specs.end(),
                  [&name](const MetricSpec& s) { return s.name == name; });
  CHT_ASSERT(known, "metric missing from the catalogue");
  values[name] = std::isfinite(value) ? value : 0.0;
}

double WorkloadResult::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

double BestOfRepeats::median() const {
  std::vector<double> measured;
  for (const double b : best_) {
    if (b >= 0) measured.push_back(b);
  }
  return perf::median(std::move(measured));
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: the kernel carries ru_maxrss
  // over an exec, so a process started from a larger parent (a Python
  // script, say) would report the parent's footprint instead of its own.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Dispatch dispatch_class(const std::string& protocol) {
  if (protocol == "chtread") return kCore;
  if (protocol == "vr") return kVr;
  return kRaft;  // raft, raft-lease
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(bool on) : on_(on), origin_ns_(wall_ns()) {
  if (on_) {
    spans_.reserve(1 << 16);
    open_.reserve(64);
  }
}

int Tracer::open(const char* name, int segment) {
  // A full buffer drops further spans rather than reallocating mid-window.
  if (!on_ || spans_.size() == spans_.capacity()) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, wall_ns(), 0, parent, segment});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = wall_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

int Tracer::record(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, int parent, int segment) {
  if (!on_ || spans_.size() == spans_.capacity()) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, segment});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::write_chrome_json(std::ostream& out,
                               const WorkloadResult& result) const {
  namespace json = metrics::json;
  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    json::Value args = json::Value::object();
    args.set("segment", s.segment);
    args.set("parent", s.parent);
    args.set("id", static_cast<int>(i));
    json::Value e = json::Value::object();
    e.set("name", s.name);
    e.set("cat", "bench");
    e.set("ph", "X");
    e.set("ts", static_cast<double>(s.start_ns - origin_ns_) / 1e3);
    e.set("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    e.set("pid", 1);
    e.set("tid", 1);
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  json::Value layers = json::Value::object();
  const auto timing = [](const Timing& t) {
    json::Value v = json::Value::object();
    v.set("count", t.count);
    v.set("ns", t.ns);
    return v;
  };
  layers.set("sim.step", timing(step));
  layers.set("client.submit", timing(submit));
  for (std::size_t c = 0; c < dispatch.size(); ++c) {
    layers.set(std::string("dispatch.") + kDispatchNames[c], timing(dispatch[c]));
  }
  json::Value metric_values = json::Value::object();
  for (const auto& [name, value] : result.values) metric_values.set(name, value);
  json::Value other = json::Value::object();
  other.set("workload", result.workload);
  other.set("layers", std::move(layers));
  other.set("metrics", std::move(metric_values));
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", std::move(other));
  doc.write(out);
  out << "\n";
}

void TimedDelivery::install(sim::Simulation& sim) {
  sim_ = &sim;
  sim.network().set_deliver_fn([this](const sim::Message& m) { deliver(m); });
}

void TimedDelivery::deliver(const sim::Message& message) {
  sim::Process& target = sim_->process(message.to);
  if (target.crashed()) return;
  const Dispatch cls =
      message.to.index() >= sim_->cluster_n() ? kClient : replica_class_;
  const std::int64_t t0 = wall_ns();
  target.on_message(message);
  tracer_.dispatch[cls].add(wall_ns() - t0);
}

// --- Layer counts ------------------------------------------------------------

NetCounts NetCounts::of(const sim::MessageStats& stats) {
  NetCounts c;
  c.sent = stats.sent;
  c.delivered = stats.delivered;
  c.dropped = stats.dropped;
  for (const auto& [type, n] : stats.sent_by_type) {
    const std::string_view prefix =
        std::string_view(type).substr(0, type.find('.'));
    for (std::size_t f = 0; f < c.by_family.size(); ++f) {
      if (prefix == kFamilies[f]) c.by_family[f] += n;
    }
  }
  return c;
}

NetCounts& NetCounts::operator+=(const NetCounts& other) {
  sent += other.sent;
  delivered += other.delivered;
  dropped += other.dropped;
  for (std::size_t f = 0; f < by_family.size(); ++f) {
    by_family[f] += other.by_family[f];
  }
  return *this;
}

NetCounts& NetCounts::operator-=(const NetCounts& other) {
  sent -= other.sent;
  delivered -= other.delivered;
  dropped -= other.dropped;
  for (std::size_t f = 0; f < by_family.size(); ++f) {
    by_family[f] -= other.by_family[f];
  }
  return *this;
}

StorageCounts StorageCounts::of(sim::Simulation& sim, int replicas) {
  StorageCounts c;
  for (int i = 0; i < replicas; ++i) {
    const sim::StableStorage& st = sim.storage(ProcessId(i));
    c.fsyncs += st.fsyncs();
    c.stall_us += st.sync_stall_us();
    for (const auto& [width, n] : st.flush_widths()) {
      c.flushes += n;
      c.flushed += static_cast<std::int64_t>(width) * n;
    }
  }
  return c;
}

StorageCounts& StorageCounts::operator+=(const StorageCounts& other) {
  fsyncs += other.fsyncs;
  stall_us += other.stall_us;
  flushes += other.flushes;
  flushed += other.flushed;
  return *this;
}

StorageCounts& StorageCounts::operator-=(const StorageCounts& other) {
  fsyncs -= other.fsyncs;
  stall_us -= other.stall_us;
  flushes -= other.flushes;
  flushed -= other.flushed;
  return *this;
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& other) {
  ops += other.ops;
  rmws += other.rmws;
  events += other.events;
  allocs += other.allocs;
  net += other.net;
  storage += other.storage;
  return *this;
}

void set_layer_metrics(WorkloadResult& result, const LayerCounts& counts,
                       const Tracer& tracer) {
  const auto ops = static_cast<double>(counts.ops);
  const auto sent = static_cast<double>(counts.net.sent);
  result.set("sim.events_per_op", ratio(static_cast<double>(counts.events), ops));
  result.set("sim.step_ns", tracer.step.mean_ns());
  // Share of step time spent outside Process::on_message: the event queue,
  // the network and timer callbacks. Only the bench's own drain loop times
  // steps; where run_one drives the queue (chaos-sweep) both stay 0.
  std::int64_t handler_ns = 0;
  for (const Timing& t : tracer.dispatch) handler_ns += t.ns;
  result.set("sim.self_frac",
             ratio(static_cast<double>(tracer.step.ns - handler_ns),
                   static_cast<double>(tracer.step.ns)));
  for (std::size_t f = 0; f < counts.net.by_family.size(); ++f) {
    result.set(std::string("net.msgs_per_op.") + kFamilies[f],
               ratio(static_cast<double>(counts.net.by_family[f]), ops));
  }
  result.set("net.delivered_per_op",
             ratio(static_cast<double>(counts.net.delivered), ops));
  result.set("net.dropped_frac",
             ratio(static_cast<double>(counts.net.dropped), sent));
  const auto rmws = static_cast<double>(counts.rmws);
  result.set("storage.fsyncs_per_rmw",
             ratio(static_cast<double>(counts.storage.fsyncs), rmws));
  result.set("storage.flush_width_mean",
             ratio(static_cast<double>(counts.storage.flushed),
                   static_cast<double>(counts.storage.flushes)));
  result.set("storage.sync_stall_ms_per_rmw",
             ratio(static_cast<double>(counts.storage.stall_us) / 1e3, rmws));
  result.set("mem.allocs_per_msg", ratio(static_cast<double>(counts.allocs), sent));
  result.set("mem.allocs_per_op", ratio(static_cast<double>(counts.allocs), ops));
  for (std::size_t c = 0; c < tracer.dispatch.size(); ++c) {
    result.set(std::string("dispatch.handler_ns_per_msg.") + kDispatchNames[c],
               tracer.dispatch[c].mean_ns());
  }
  result.set("client.submit_ns", tracer.submit.mean_ns());
}

void set_registry_metrics(WorkloadResult& result,
                          const metrics::Registry& merged) {
  const auto hist_ms = [&merged](const char* name, double q) {
    const metrics::Histogram* h = merged.find_histogram(name);
    return h != nullptr && h->count() > 0
               ? static_cast<double>(h->percentile(q)) / 1e3
               : 0.0;
  };
  const auto value = [&merged](const char* name) {
    return static_cast<double>(merged.value(name));
  };
  result.set("core.rmws_per_batch",
             ratio(value("rmws_completed"), value("batches_committed_as_leader")));
  result.set("core.reads_blocked_frac",
             ratio(value("reads_blocked"), value("reads_completed")));
  result.set("core.read_block_p99_ms", hist_ms("span.read.block_us", 0.99));
  result.set("core.prepare_p50_ms", hist_ms("span.doops.prepare_us", 0.5));
  result.set("core.gate_p50_ms", hist_ms("span.doops.gate_us", 0.5));
  result.set("leader.init_ms_p50", hist_ms("span.leader.init_us", 0.5));
  const double client_ops = value("client.reads") + value("client.rmws");
  result.set("client.retries_per_op", ratio(value("client.retries"), client_ops));
  result.set("client.redirects_per_op",
             ratio(value("client.redirects"), client_ops));
}

std::vector<double> window_widths(const std::vector<checker::HistoryOp>& ops) {
  std::vector<std::int64_t> invoked;
  std::vector<std::int64_t> responded;
  invoked.reserve(ops.size());
  for (const auto& op : ops) {
    invoked.push_back(op.invoked.to_micros());
    if (op.completed()) responded.push_back(op.responded->to_micros());
  }
  std::sort(invoked.begin(), invoked.end());
  std::sort(responded.begin(), responded.end());
  std::vector<double> widths;
  widths.reserve(invoked.size());
  for (const std::int64_t t : invoked) {
    const auto opened =
        std::upper_bound(invoked.begin(), invoked.end(), t) - invoked.begin();
    const auto closed =
        std::upper_bound(responded.begin(), responded.end(), t) - responded.begin();
    widths.push_back(static_cast<double>(opened - closed));
  }
  return widths;
}

}  // namespace cht::perf
