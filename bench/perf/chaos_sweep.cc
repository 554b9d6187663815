// chaos-sweep: chaos::run_one over power-cycle seeds on chtread, raft and
// vr, driven through chaos::sweep_seeds on one thread the way the nightly
// fuzz matrix runs it. It is the only workload that reaches Raft, VR,
// recovery and the invariant registry.
//
// Seeds come from the nightly power-cycle range, 1..500, where all three
// stacks pass; the run seed picks which blocks of it a run covers. Outside
// it raft fails seed 5404 and vr aborts on an assertion at seed 4351, and
// raft-lease is left out because it fails seed 203 (read-your-writes): an
// input that fails cannot be timed.
//
// A segment is a round of the same seeds on each stack, so every segment
// has the same stack mix and a change to one stack's speed moves every
// segment. The bench sees run_one only through its adapter hook: a
// ProbeAdapter decorator marks when the adapter was built, when the
// invariant phase starts and ends, and captures what it needs from the
// cluster when run_one destroys it. Capture work is timed and its
// allocations counted so both can be taken out of the seed's own cost.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "chaos/adapter.h"
#include "chaos/spec.h"
#include "chaos/sweep.h"
#include "checker/linearizability.h"
#include "perf.h"

namespace cht::perf {
namespace {

constexpr std::array<const char*, 3> kStacks = {"chtread", "raft", "vr"};
constexpr std::uint64_t kNightlySeeds = 500;

struct StackTotals {
  std::int64_t seeds = 0;
  std::int64_t seed_ns = 0;
  std::int64_t build_ns = 0;
  std::int64_t simulate_ns = 0;
  std::int64_t check_ns = 0;
  std::int64_t msgs = 0;
  std::uint64_t allocs = 0;
};

// What the probe learns about the seed in flight, and what the window
// accumulates from the seeds behind the sim and count metrics.
struct SeedState {
  explicit SeedState(Tracer& t) : tracer(t) {}
  Tracer& tracer;
  int segment = 0;
  bool in_window = false;

  std::int64_t start_ns = 0;
  std::int64_t built_ns = 0;
  std::int64_t check_begin_ns = 0;
  std::int64_t check_end_ns = 0;
  std::uint64_t allocs0 = 0;
  std::int64_t excluded_ns = 0;
  std::uint64_t excluded_allocs = 0;
  std::int64_t completed = 0;
  std::int64_t msgs = 0;

  // Window accumulators.
  std::vector<double> reads_ms, rmws_ms, widths;
  LayerCounts counts;
  metrics::Registry merged;
  std::int64_t leadership_changes = 0;
  std::int64_t checked_ops = 0;
  std::int64_t checker_ns = 0;
  std::uint64_t checker_allocs = 0;

  void begin_seed() {
    start_ns = wall_ns();
    built_ns = check_begin_ns = check_end_ns = 0;
    excluded_ns = 0;
    excluded_allocs = 0;
    allocs0 = allocations();
  }

  void capture(chaos::ClusterAdapter& cluster);
};

void SeedState::capture(chaos::ClusterAdapter& cluster) {
  const std::int64_t t0 = wall_ns();
  const std::uint64_t a0 = allocations();
  const auto& history = cluster.history().ops();
  completed = static_cast<std::int64_t>(cluster.completed());
  const NetCounts net = NetCounts::of(cluster.sim().network().stats());
  msgs = net.sent;
  if (in_window) {
    std::int64_t rmws = 0;
    for (const auto& op : history) {
      if (!op.completed()) continue;
      const bool read = cluster.model().is_read(op.op);
      rmws += read ? 0 : 1;
      (read ? reads_ms : rmws_ms).push_back(op.latency().to_millis_f());
    }
    for (const double w : window_widths(history)) widths.push_back(w);
    counts.ops += completed;
    counts.rmws += rmws;
    counts.net += net;
    counts.storage += StorageCounts::of(cluster.sim(), cluster.n());
    cluster.merge_metrics_into(merged);
    leadership_changes += cluster.leadership_changes();
    // run_one's own verdict already covered this history; the re-run only
    // times the checker in isolation.
    {
      ScopedSpan span(tracer, "check_linearizable", segment);
      const std::uint64_t c0 = allocations();
      const std::int64_t c_start = wall_ns();
      checker::check_linearizable(cluster.model(), history,
                                  chaos::RunSpec{}.check_budget);
      checker_ns += wall_ns() - c_start;
      checker_allocs += allocations() - c0;
      checked_ops += static_cast<std::int64_t>(history.size());
    }
  }
  excluded_ns += wall_ns() - t0;
  excluded_allocs += allocations() - a0;
}

class ProbeAdapter final : public chaos::ForwardingAdapter {
 public:
  ProbeAdapter(std::unique_ptr<chaos::ClusterAdapter> inner, SeedState& state)
      : ForwardingAdapter(std::move(inner)),
        state_(state),
        delivery_(state.tracer, dispatch_class(protocol())) {
    state_.built_ns = wall_ns();
    if (state_.tracer.on()) delivery_.install(sim());
  }
  ~ProbeAdapter() override { state_.capture(inner()); }
  ProbeAdapter(const ProbeAdapter&) = delete;
  ProbeAdapter& operator=(const ProbeAdapter&) = delete;

  void submit(int process, object::Operation op) override {
    Tracer& tracer = state_.tracer;
    if (!tracer.on()) {
      inner().submit(process, std::move(op));
      return;
    }
    const std::int64_t t0 = wall_ns();
    inner().submit(process, std::move(op));
    tracer.submit.add(wall_ns() - t0);
  }
  bool await_quiesce(Duration timeout) override {
    ScopedSpan span(state_.tracer, "await_quiesce", state_.segment);
    return inner().await_quiesce(timeout);
  }
  // The invariant phase of run_one opens with committed_op_ids (the
  // durability check) and closes with protocol_invariants.
  std::vector<OperationId> committed_op_ids() override {
    if (state_.check_begin_ns == 0) state_.check_begin_ns = wall_ns();
    ScopedSpan span(state_.tracer, "committed_op_ids", state_.segment);
    return inner().committed_op_ids();
  }
  std::vector<std::string> protocol_invariants() override {
    std::vector<std::string> violations;
    {
      ScopedSpan span(state_.tracer, "protocol_invariants", state_.segment);
      violations = inner().protocol_invariants();
    }
    state_.check_end_ns = wall_ns();
    return violations;
  }

 private:
  SeedState& state_;
  TimedDelivery delivery_;
};

}  // namespace

WorkloadResult run_chaos_sweep(const Options& options, Tracer& tracer) {
  // Seeds per stack per segment, and segments in the window.
  const int per_stack = options.smoke ? 1 : 5;
  const int window = options.smoke ? 1 : 20;
  WorkloadResult result;
  result.workload = options.workload;
  result.window = window;

  SeedState state(tracer);
  std::array<StackTotals, kStacks.size()> stacks{};
  std::vector<double> builds_s;
  BestOfRepeats rates(window, BestOfRepeats::kHigher);
  // A segment's set-up is the sum of its seeds' make_adapter calls.
  BestOfRepeats setups_s(window, BestOfRepeats::kLower);

  run_segments(result, options.seconds, [&](int i) {
    ScopedSpan segment_span(tracer, "segment", i);
    state.segment = i;
    state.in_window = i < window;
    std::int64_t segment_ns = 0;
    std::int64_t segment_build_ns = 0;
    std::int64_t segment_ops = 0;
    for (std::size_t s = 0; s < kStacks.size(); ++s) {
      chaos::RunSpec spec;
      spec.protocol = kStacks[s];
      spec.profile = "power-cycle";
      spec.object = "kv";
      StackTotals& totals = stacks[s];
      int seeds_left = per_stack;
      int seed_span = -1;
      chaos::SweepOptions sweep;
      sweep.threads = 1;
      sweep.hook = [&state](std::unique_ptr<chaos::ClusterAdapter> inner) {
        return std::make_unique<ProbeAdapter>(std::move(inner), state);
      };
      sweep.on_result = [&](const chaos::RunResult& run) {
        const std::int64_t end_ns = wall_ns();
        tracer.close(seed_span);
        const std::int64_t seed_ns =
            end_ns - state.start_ns - state.excluded_ns;
        const std::uint64_t allocs =
            allocations() - state.allocs0 - state.excluded_allocs;
        const std::int64_t check_end =
            state.check_end_ns != 0 ? state.check_end_ns : end_ns;
        tracer.record("make_adapter", state.start_ns, state.built_ns,
                      seed_span, i);
        tracer.record("simulate", state.built_ns, state.check_begin_ns,
                      seed_span, i);
        tracer.record("invariants", state.check_begin_ns, check_end,
                      seed_span, i);
        ++result.attempted;
        if (!run.ok() || !run.checker_decided) {
          ++result.failed;
          result.error(spec.protocol + " seed " + std::to_string(run.spec.seed) +
                       (run.ok() ? ": checker undecided"
                                 : ": " + run.violations.front()));
        }
        segment_ns += seed_ns;
        segment_build_ns += state.built_ns - state.start_ns;
        segment_ops += state.completed;
        builds_s.push_back(static_cast<double>(state.built_ns - state.start_ns) / 1e9);
        if (state.in_window) {
          ++totals.seeds;
          totals.seed_ns += seed_ns;
          totals.build_ns += state.built_ns - state.start_ns;
          totals.simulate_ns += state.check_begin_ns - state.built_ns;
          totals.check_ns += check_end - state.check_begin_ns;
          totals.msgs += state.msgs;
          totals.allocs += allocs;
          state.counts.allocs += allocs;
        }
        if (--seeds_left > 0) {
          seed_span = tracer.open("run_one", i);
          state.begin_seed();
        }
      };
      seed_span = tracer.open("run_one", i);
      state.begin_seed();
      const std::uint64_t blocks = kNightlySeeds / static_cast<std::uint64_t>(per_stack);
      const std::uint64_t block =
          (options.seed + static_cast<std::uint64_t>(i % window)) % blocks;
      chaos::sweep_seeds(spec, 1 + block * static_cast<std::uint64_t>(per_stack),
                         per_stack, sweep);
    }
    rates.add(i, static_cast<double>(segment_ops) /
                     (static_cast<double>(segment_ns) / 1e9));
    setups_s.add(i, static_cast<double>(segment_build_ns) / 1e9);
  });

  const LayerCounts& counts = state.counts;
  result.set("read_p50_ms", percentile(state.reads_ms, 0.50));
  result.set("read_p99_ms", percentile(state.reads_ms, 0.99));
  result.set("rmw_p50_ms", percentile(state.rmws_ms, 0.50));
  result.set("rmw_p99_ms", percentile(state.rmws_ms, 0.99));
  result.set("msgs_per_op", ratio(static_cast<double>(counts.net.sent),
                                  static_cast<double>(counts.ops)));
  result.set("ops_per_s", rates.median());
  result.set("setup_s", setups_s.median());
  set_layer_metrics(result, counts, tracer);
  set_registry_metrics(result, state.merged);
  std::int64_t window_seeds = 0;
  for (const StackTotals& t : stacks) window_seeds += t.seeds;
  result.set("leader.changes",
             ratio(static_cast<double>(state.leadership_changes),
                   static_cast<double>(window_seeds)));
  result.set("harness.build_ms", median(builds_s) * 1e3);
  for (std::size_t s = 0; s < kStacks.size(); ++s) {
    const StackTotals& t = stacks[s];
    const std::string p = std::string("chaos.") + kStacks[s];
    const auto seeds = static_cast<double>(t.seeds);
    const auto share = [&t](std::int64_t ns) {
      return ratio(static_cast<double>(ns), static_cast<double>(t.seed_ns));
    };
    result.set(p + ".ms_per_seed",
               ratio(static_cast<double>(t.seed_ns) / 1e6, seeds));
    result.set(p + ".build_frac", share(t.build_ns));
    result.set(p + ".simulate_frac", share(t.simulate_ns));
    result.set(p + ".check_frac", share(t.check_ns));
    result.set(p + ".msgs_per_seed",
               ratio(static_cast<double>(t.msgs), static_cast<double>(t.seeds)));
    result.set(p + ".allocs_per_msg",
               ratio(static_cast<double>(t.allocs), static_cast<double>(t.msgs)));
  }
  result.set("checker.us_per_op",
             ratio(static_cast<double>(state.checker_ns) / 1e3,
                   static_cast<double>(state.checked_ops)));
  result.set("checker.allocs_per_op",
             ratio(static_cast<double>(state.checker_allocs),
                   static_cast<double>(state.checked_ops)));
  result.set("checker.window_p50", percentile(state.widths, 0.50));
  result.set("checker.window_max", percentile(state.widths, 1.0));
  return result;
}

}  // namespace cht::perf
