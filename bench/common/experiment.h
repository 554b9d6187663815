// ExperimentResult: the one declaration behind both bench outputs.
//
// Replaces the old free-function header/table printing. A bench declares its
// sections (header + table rows), named metrics, cluster configs and
// observability captures through this builder; the builder renders the
// stdout tables exactly as before AND emits the versioned BENCH_<name>.json
// artifact from the same data, so the human-readable and machine-readable
// outputs cannot drift apart.
//
// Every bench main() follows the same shape:
//
//   int main(int argc, char** argv) {
//     auto args = cht::bench::parse_bench_args(argc, argv);   // --smoke, --out=
//     cht::bench::ExperimentResult result("read_latency", args);
//     result.begin("E4: ...", "Claim: ...");
//     result.columns({"algorithm", "p50 (ms)", ...});
//     result.row({...});
//     result.note("Expected shape: ...");
//     result.end();
//     ...
//     return result.finish();   // prints nothing; writes BENCH_read_latency.json
//   }
//
// The artifact schema is pinned in metrics/json.h and documented in
// docs/OBSERVABILITY.md; tools/bench_diff.py validates it in CI.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.h"
#include "harness/cluster.h"
#include "metrics/json.h"
#include "metrics/registry.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "sim/network.h"

namespace cht::bench {

struct BenchArgs {
  bool smoke = false;  // tiny op counts for CI bench-smoke
  std::string out;     // artifact path; empty = BENCH_<name>.json in cwd
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out = arg.substr(6);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench [--smoke] [--out=ARTIFACT.json]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << arg
                << " (known: --smoke --out=PATH)\n";
      std::exit(2);
    }
  }
  return args;
}

class ExperimentResult {
 public:
  ExperimentResult(std::string name, const BenchArgs& args)
      : ExperimentResult(std::move(name), args.out, args.smoke) {}

  ExperimentResult(std::string name, std::string out_path, bool smoke)
      : name_(std::move(name)),
        out_path_(out_path.empty() ? "BENCH_" + name_ + ".json"
                                   : std::move(out_path)),
        smoke_(smoke),
        metrics_(metrics::json::Value::object()),
        sections_(metrics::json::Value::array()),
        configs_(metrics::json::Value::array()),
        observability_(metrics::json::Value::array()),
        latencies_(metrics::json::Value::array()) {}

  bool smoke() const { return smoke_; }
  // Pick the full-size or the --smoke-size parameter.
  int scaled(int full, int smoke_size) const {
    return smoke_ ? smoke_size : full;
  }

  // --- Sections: one experiment header + table, printed as declared --------
  void begin(const std::string& id, const std::string& claim) {
    std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
    section_ = metrics::json::Value::object();
    section_.set("id", id);
    section_.set("claim", claim);
    section_rows_ = metrics::json::Value::array();
    section_notes_ = metrics::json::Value::array();
    table_.reset();
    in_section_ = true;
  }

  void columns(std::vector<std::string> headers) {
    auto hs = metrics::json::Value::array();
    for (const auto& h : headers) hs.push(h);
    section_.set("headers", std::move(hs));
    table_ = std::make_unique<metrics::Table>(std::move(headers));
  }

  void row(std::vector<std::string> cells) {
    auto cs = metrics::json::Value::array();
    for (const auto& c : cells) cs.push(c);
    section_rows_.push(std::move(cs));
    if (table_) table_->add_row(std::move(cells));
  }

  // Prose printed after the current section's table (the "expected shape"
  // paragraphs); also lands in the artifact.
  void note(const std::string& text) {
    section_notes_.push(text);
    pending_note_texts_.push_back(text);
  }

  void end() {
    if (!in_section_) return;
    if (table_) table_->print(std::cout);
    for (const auto& text : pending_note_texts_) {
      std::cout << "\n" << text << "\n";
    }
    pending_note_texts_.clear();
    section_.set("rows", std::move(section_rows_));
    section_.set("notes", std::move(section_notes_));
    sections_.push(std::move(section_));
    table_.reset();
    in_section_ = false;
  }

  // --- Flat named metrics --------------------------------------------------
  void metric(const std::string& name, std::int64_t value) {
    metrics_.set(name, value);
  }
  void metric(const std::string& name, double value) {
    metrics_.set(name, value);
  }

  // --- Experiment configuration capture ------------------------------------
  void config(const std::string& label, const harness::ClusterConfig& cluster,
              const core::ConfigOverrides& overrides = {}) {
    auto value = metrics::json::Value::object();
    value.set("label", label);
    value.set("n", cluster.n);
    value.set("seed", static_cast<std::int64_t>(cluster.seed));
    value.set("delta_us", cluster.delta.to_micros());
    value.set("epsilon_us", cluster.epsilon.to_micros());
    value.set("gst_us", cluster.gst.to_micros());
    value.set("pre_gst_loss", cluster.pre_gst_loss);
    auto ov = metrics::json::Value::object();
    for (const auto& [k, v] : overrides.entries()) ov.set(k, v);
    value.set("overrides", std::move(ov));
    configs_.push(std::move(value));
  }

  // --- Observability capture: merged registries + message counts -----------
  // Works for any cluster exposing n(), replica(i).metrics() and sim().
  template <class ClusterT>
  void observe(const std::string& label, ClusterT& cluster) {
    metrics::Registry merged;
    for (int i = 0; i < cluster.n(); ++i) {
      merged.merge_from(cluster.replica(i).metrics());
    }
    observe_registry(label, merged, cluster.sim().network().stats());
  }

  void observe_registry(const std::string& label,
                        const metrics::Registry& registry,
                        const sim::MessageStats& messages) {
    auto value = metrics::json::Value::object();
    value.set("label", label);
    const auto reg = metrics::registry_to_json(registry);
    if (const auto* c = reg.find("counters")) value.set("counters", *c);
    if (const auto* h = reg.find("histograms")) value.set("histograms", *h);
    auto msgs = metrics::json::Value::object();
    msgs.set("sent", messages.sent);
    msgs.set("delivered", messages.delivered);
    msgs.set("dropped", messages.dropped);
    auto by_type = metrics::json::Value::object();
    for (const auto& [type, count] : messages.sent_by_type) {
      by_type.set(type, count);
    }
    msgs.set("by_type", std::move(by_type));
    value.set("messages", std::move(msgs));
    observability_.push(std::move(value));
  }

  // --- Latency percentiles from a recorder ---------------------------------
  void latency(const std::string& label,
               const metrics::LatencyRecorder& recorder) {
    auto value = metrics::json::Value::object();
    value.set("label", label);
    value.set("count", static_cast<std::int64_t>(recorder.count()));
    value.set("p50_us", recorder.p50().to_micros());
    value.set("p90_us", recorder.percentile(0.9).to_micros());
    value.set("p99_us", recorder.p99().to_micros());
    value.set("max_us", recorder.max().to_micros());
    value.set("mean_us", recorder.mean().to_micros());
    latencies_.push(std::move(value));
  }

  // Writes the artifact. Returns the process exit code (0 on success).
  int finish() {
    end();  // close a dangling section, if any
    auto root = metrics::json::Value::object();
    root.set("schema", metrics::kBenchSchema);
    root.set("schema_version", metrics::kBenchSchemaVersion);
    root.set("name", name_);
    root.set("smoke", smoke_);
    root.set("sections", std::move(sections_));
    root.set("metrics", std::move(metrics_));
    root.set("configs", std::move(configs_));
    root.set("observability", std::move(observability_));
    root.set("latencies", std::move(latencies_));
    std::ofstream out(out_path_);
    if (!out) {
      std::cerr << "cannot write artifact: " << out_path_ << "\n";
      return 1;
    }
    root.write(out);
    out << "\n";
    std::cout << "\nartifact: " << out_path_ << "\n";
    return 0;
  }

 private:
  std::string name_;
  std::string out_path_;
  bool smoke_;
  metrics::json::Value metrics_;
  metrics::json::Value sections_;
  metrics::json::Value configs_;
  metrics::json::Value observability_;
  metrics::json::Value latencies_;
  metrics::json::Value section_ = metrics::json::Value::object();
  metrics::json::Value section_rows_ = metrics::json::Value::array();
  metrics::json::Value section_notes_ = metrics::json::Value::array();
  std::vector<std::string> pending_note_texts_;
  std::unique_ptr<metrics::Table> table_;
  bool in_section_ = false;
};

}  // namespace cht::bench
