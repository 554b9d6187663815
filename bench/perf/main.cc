// bench_perf: end-to-end and per-layer cost of the replicated-object stack.
//
//   bench_perf --workload=<read-mostly|rmw-failover|chaos-sweep|check-wide|all>
//              --seed=S [--scale=smoke|full] [--seconds=T]
//              [--out=BENCH_perf.json] [--trace-out=trace.json]
//
// Each workload runs in its own process (--workload=all forks one per
// workload) on one thread. A run measures the workload's deterministic
// window of segments, then keeps running segments until --seconds of wall
// time have passed; simulated-time metrics and counts come from the window
// only, so they repeat exactly for a seed, while ops_per_s and setup_s are
// medians over inputs of each input's best repeat (README.md). With
// --trace-out the workload runs twice, untraced and then traced, each for
// half of --seconds: end-to-end metrics come from the untraced run,
// per-layer metrics from the traced one, the traced run must reproduce
// every simulated-time metric and count, and trace.overhead_frac states
// what tracing cost. Every metric is printed by name with its unit.
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "metrics/json.h"
#include "perf.h"

// Memory layer: every heap allocation of the process is counted here (the
// counting malloc wrapper of tests/test_metrics.cc). The process runs one
// thread, so a plain counter is exact.
static std::uint64_t g_allocations = 0;

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cht::perf {

std::uint64_t allocations() { return g_allocations; }

namespace {

namespace json = metrics::json;

const char* const kWorkloads[] = {"read-mostly", "rmw-failover", "chaos-sweep",
                                  "check-wide"};

int usage(const std::string& problem) {
  std::cerr << "bench_perf: " << problem << "\n"
            << "usage: bench_perf --workload=<read-mostly|rmw-failover|"
               "chaos-sweep|check-wide|all> --seed=S [--scale=smoke|full]\n"
               "                  [--seconds=T] [--out=FILE] "
               "[--trace-out=FILE]\n";
  return 2;
}

WorkloadResult run_workload(const Options& options, Tracer& tracer) {
  if (options.workload == "chaos-sweep") return run_chaos_sweep(options, tracer);
  if (options.workload == "check-wide") return run_check_wide(options, tracer);
  return run_serving(options, tracer);
}

json::Value to_json(const WorkloadResult& r, const Options& options) {
  json::Value metrics = json::Value::object();
  for (const MetricSpec& spec : catalogue()) {
    json::Value m = json::Value::object();
    m.set("value", r.get(spec.name));
    m.set("unit", spec.unit);
    m.set("kind", kind_name(spec.kind));
    m.set("end_to_end", spec.end_to_end);
    metrics.set(spec.name, std::move(m));
  }
  json::Value errors = json::Value::array();
  for (const std::string& e : r.errors) errors.push(e);
  json::Value v = json::Value::object();
  v.set("workload", r.workload);
  v.set("seed", static_cast<std::int64_t>(options.seed));
  v.set("scale", options.smoke ? "smoke" : "full");
  v.set("seconds", options.seconds);
  v.set("traced", options.traced);
  v.set("segments", r.segments);
  v.set("window", r.window);
  v.set("correct", r.correct());
  v.set("attempted", r.attempted);
  v.set("failed", r.failed);
  v.set("errors", std::move(errors));
  v.set("metrics", std::move(metrics));
  return v;
}

void print(const WorkloadResult& r) {
  std::printf("== %s: %d segments (%d in the window), %lld attempted, "
              "%lld failed\n",
              r.workload.c_str(), r.segments, r.window,
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (const MetricSpec& spec : catalogue()) {
    std::printf("  %-40s %16.9g %-13s %s\n", spec.name.c_str(),
                r.get(spec.name), spec.unit.c_str(), kind_name(spec.kind));
  }
  for (const std::string& e : r.errors) std::printf("  ERROR %s\n", e.c_str());
  std::fflush(stdout);
}

// Runs one workload in this process and prints its metrics. A traced run
// splits --seconds between its untraced and traced halves, so it takes as
// long as an untraced one.
WorkloadResult run_here(const Options& options, const std::string& trace_out) {
  Options half = options;
  if (options.traced) half.seconds /= 2;
  Options plain = half;
  plain.traced = false;
  Tracer off(false);
  WorkloadResult result = run_workload(plain, off);
  if (options.traced) {
    Tracer on(true);
    WorkloadResult traced = run_workload(half, on);
    for (const MetricSpec& spec : catalogue()) {
      if (spec.kind != Kind::kWall && result.get(spec.name) != traced.get(spec.name)) {
        result.error("tracing changed " + spec.name);
      }
      if (!spec.end_to_end) result.set(spec.name, traced.get(spec.name));
    }
    for (const std::string& e : traced.errors) result.error(e);
    result.set("trace.overhead_frac",
               1.0 - ratio(traced.get("ops_per_s"), result.get("ops_per_s")));
    std::ofstream out(trace_out);
    on.write_chrome_json(out, result);
    if (!out) result.error("cannot write " + trace_out);
  }
  print(result);
  return result;
}

std::string trace_path_for(const std::string& path, const std::string& workload) {
  const auto dot = path.rfind('.');
  const auto slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + workload;
  }
  return path.substr(0, dot) + "." + workload + path.substr(dot);
}

struct Record {
  std::string json;  // empty if the workload died without a result
  bool correct = false;
};

// Runs one workload in a child process, so that each workload's peak RSS
// and allocator state are its own.
Record run_in_child(const Options& options, const std::string& trace_out) {
  int fds[2];
  if (pipe(fds) != 0) return {};
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    const WorkloadResult result = run_here(options, trace_out);
    const std::string text = to_json(result, options).dump(0);
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(stdout);
    _exit(result.correct() ? 0 : 1);
  }
  close(fds[1]);
  Record record;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    record.json.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  const bool exited = WIFEXITED(status) && WEXITSTATUS(status) <= 1;
  if (!exited) record.json.clear();
  record.correct = exited && WEXITSTATUS(status) == 0;
  return record;
}

json::Value machine() {
  json::Value m = json::Value::object();
  m.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  m.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  m.set("compiler", std::string("gcc ") + __VERSION__);
#endif
  m.set("build_type", CHT_PERF_BUILD_TYPE);
  return m;
}

}  // namespace
}  // namespace cht::perf

int main(int argc, char** argv) {
  using namespace cht::perf;
#if defined(__GLIBC__)
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises with each large block freed, and how much freed memory the heap
  // then keeps depends on the exact allocation sequence: peak_rss_mb moved
  // by 10% with the length of the --out path. Pinned, it repeats within
  // 0.3%.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  Options options;
  std::string out_path;
  std::string trace_out;
  std::string scale = "full";
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return usage("bad argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (key == "workload") {
        options.workload = value;
      } else if (key == "seed") {
        options.seed = std::stoull(value);
        seeded = true;
      } else if (key == "scale") {
        scale = value;
      } else if (key == "seconds") {
        options.seconds = std::stod(value);
      } else if (key == "out") {
        out_path = value;
      } else if (key == "trace-out") {
        trace_out = value;
      } else {
        return usage("unknown flag --" + key);
      }
    } catch (const std::exception&) {
      return usage("bad value in '" + arg + "'");
    }
  }
  if (scale != "smoke" && scale != "full") return usage("unknown scale " + scale);
  if (!seeded) return usage("--seed is required");
  if (options.seconds < 0 || options.seconds > 150) {
    return usage("--seconds must be within [0, 150]");
  }
  options.smoke = scale == "smoke";
  options.traced = !trace_out.empty();
  catalogue();  // built before any allocation-counting window

  std::vector<Record> records;
  if (options.workload == "all") {
    for (const char* w : kWorkloads) {
      Options one = options;
      one.workload = w;
      records.push_back(run_in_child(
          one, options.traced ? trace_path_for(trace_out, w) : trace_out));
      if (records.back().json.empty()) {
        std::cerr << "bench_perf: workload " << w << " crashed\n";
        return 1;
      }
    }
  } else {
    bool known = false;
    for (const char* w : kWorkloads) known = known || options.workload == w;
    if (!known) return usage("unknown workload '" + options.workload + "'");
    const WorkloadResult result = run_here(options, trace_out);
    records.push_back({to_json(result, options).dump(0), result.correct()});
  }

  bool correct = true;
  for (const Record& r : records) correct = correct && r.correct;
  if (!out_path.empty()) {
    // The workload records are already JSON text; splice them in.
    std::ofstream out(out_path);
    out << "{\"schema\":\"cht.perf.v1\",\"machine\":" << machine().dump(0)
        << ",\"workloads\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
      out << (i == 0 ? "" : ",") << records[i].json;
    }
    out << "]}\n";
    if (!out) {
      std::cerr << "bench_perf: cannot write " << out_path << "\n";
      return 1;
    }
  }
  return correct ? 0 : 1;
}
