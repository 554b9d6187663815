// E10 — Behaviour across the global stabilization time (paper model, S1).
//
// Claim: before GST the system is asynchronous (arbitrary delays, loss) and
// operations may take arbitrarily long; after GST, RMWs commit in a few
// delta, reads become local and non-blocking, and only LeaseGrant messages
// remain on the red path. We submit a steady mixed workload across GST and
// print a per-interval timeline of op latencies and blocked-read counts.
#include <iostream>
#include <memory>

#include "common/bench_util.h"
#include "common/experiment.h"
#include "object/kv_object.h"

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("stabilization", args);
  result.begin(
      "E10: operation latency timeline across GST",
      "GST = 3.0 s; pre-GST: delays up to 250 ms, 20% loss; post-GST:\n"
      "delays <= delta = 10 ms. Steady workload: 1 write + 4 reads per\n"
      "100 ms window, submitters round-robin.");

  harness::ClusterConfig config;
  config.n = 5;
  config.seed = 1001;
  config.delta = Duration::millis(10);
  config.gst = RealTime::zero() + Duration::seconds(3);
  config.pre_gst_loss = 0.2;
  config.pre_gst_delay_max = Duration::millis(250);
  harness::Cluster cluster(config, std::make_shared<object::KVObject>());

  struct Sample {
    RealTime submitted;
    bool is_read;
    std::size_t index;
  };
  std::vector<Sample> samples;

  const Duration step = Duration::millis(100);
  const int total_steps = 60;  // 6 seconds: 3 before GST, 3 after
  for (int s = 0; s < total_steps; ++s) {
    const std::size_t base = cluster.history().ops().size();
    cluster.submit(s % cluster.n(), object::KVObject::put("k", std::to_string(s)));
    samples.push_back({cluster.sim().now(), false, base});
    for (int r = 0; r < 4; ++r) {
      samples.push_back({cluster.sim().now(), true, base + 1 + r});
      cluster.submit((s + r) % cluster.n(), object::KVObject::get("k"));
    }
    cluster.run_for(step);
  }
  cluster.await_quiesce(Duration::seconds(120));

  result.columns({"window (s)", "phase", "writes p50 (ms)", "writes max (ms)",
                  "reads p50 (ms)", "reads max (ms)", "reads still pending"});
  const auto& ops = cluster.history().ops();
  metrics::LatencyRecorder post_gst_reads, post_gst_writes;
  for (int w = 0; w < 6; ++w) {
    const RealTime lo = RealTime::zero() + Duration::seconds(w);
    const RealTime hi = lo + Duration::seconds(1);
    metrics::LatencyRecorder writes, reads;
    int pending = 0;
    for (const auto& sample : samples) {
      if (sample.submitted < lo || sample.submitted >= hi) continue;
      const auto& record = ops.at(sample.index);
      if (!record.completed()) {
        ++pending;
        continue;
      }
      (sample.is_read ? reads : writes).record(record.latency());
      if (w >= 3) {
        (sample.is_read ? post_gst_reads : post_gst_writes)
            .record(record.latency());
      }
    }
    auto cell = [](const metrics::LatencyRecorder& r, bool max) {
      if (r.empty()) return std::string("-");
      return metrics::Table::num((max ? r.max() : r.p50()).to_millis_f(), 1);
    };
    result.row({std::to_string(w) + ".." + std::to_string(w + 1),
                w < 3 ? "pre-GST (async, lossy)" : "post-GST (delta bound)",
                cell(writes, false), cell(writes, true), cell(reads, false),
                cell(reads, true),
                metrics::Table::num(static_cast<std::int64_t>(pending))});
  }
  result.config("across-gst", cluster.config(), cluster.options());
  result.observe("across-gst", cluster);
  result.latency("post-gst-reads", post_gst_reads);
  result.latency("post-gst-writes", post_gst_writes);
  result.note(
      "Expected shape: pre-GST windows show large/irregular\n"
      "latencies (possibly hundreds of ms); post-GST writes settle\n"
      "to ~2-3*delta and reads to ~0 ms (local), with nothing left\n"
      "pending.");
  result.end();
  return result.finish();
}
