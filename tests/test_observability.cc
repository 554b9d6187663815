// Observability integration tests.
//
// Three properties the metrics subsystem must keep:
//   1. The artifact JSON schema is pinned: a fixed ExperimentResult renders
//      byte-for-byte identical to the golden file (schema_version 1). A
//      schema change must bump metrics::kBenchSchemaVersion and regenerate
//      the golden (CHT_REGEN_GOLDEN=1 ctest -R test_observability).
//   2. Metrics are pure observers: a cluster run with metrics disabled is
//      event-for-event identical to the same run with metrics enabled
//      (histories, final state fingerprints and simulated clocks match).
//   3. A steady-state chtread run populates the protocol-phase span
//      histograms the benches and artifacts rely on.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/experiment.h"
#include "harness/cluster.h"
#include "metrics/json.h"
#include "metrics/registry.h"
#include "metrics/stats.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// A fully deterministic artifact exercising every schema section.
std::string render_fixed_artifact(const std::string& path) {
  bench::ExperimentResult result("golden", path, /*smoke=*/true);
  result.begin("E0: schema pin", "Claim: the artifact layout is stable.");
  result.columns({"variant", "value"});
  result.row({"alpha", "1"});
  result.row({"beta", "2"});
  result.note("Expected shape: two rows, one note.");
  result.end();
  result.metric("ops_total", static_cast<std::int64_t>(42));
  result.metric("ratio", 1.5);

  harness::ClusterConfig cluster;
  cluster.n = 5;
  cluster.seed = 7;
  cluster.delta = Duration::millis(10);
  cluster.epsilon = Duration::millis(1);
  core::ConfigOverrides overrides;
  overrides.read_policy = core::ReadPolicy::kLeaderForward;
  overrides.commit_wait = Duration::millis(3);
  result.config("main", cluster, overrides);

  metrics::Registry registry;
  registry.counter("reads_completed").inc(10);
  auto& h = registry.histogram("span.read.block_us");
  h.record(100);
  h.record(900);
  sim::MessageStats messages;
  messages.sent = 50;
  messages.delivered = 48;
  messages.dropped = 2;
  messages.sent_by_type["Prepare"] = 20;
  messages.sent_by_type["Commit"] = 30;
  result.observe_registry("main", registry, messages);

  metrics::LatencyRecorder reads;
  for (int i = 1; i <= 100; ++i) reads.record(Duration::micros(10 * i));
  result.latency("reads", reads);

  EXPECT_EQ(result.finish(), 0);
  return read_file(path);
}

TEST(ObservabilityTest, ArtifactMatchesGoldenSchema) {
  const std::string artifact_path = "cht_observability_artifact.json";
  const std::string artifact = render_fixed_artifact(artifact_path);
  ASSERT_FALSE(artifact.empty());
  // Version pin: a schema break shows up here even before the golden diff.
  EXPECT_NE(artifact.find("\"schema\": \"cht.bench.v1\""), std::string::npos);
  EXPECT_NE(artifact.find("\"schema_version\": 1"), std::string::npos);
  static_assert(metrics::kBenchSchemaVersion == 1,
                "schema bumped: regenerate tests/golden and update this test");

  const std::string golden_path =
      std::string(CHT_TEST_GOLDEN_DIR) + "/bench_schema.golden.json";
  if (std::getenv("CHT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    out << artifact;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path
                               << " (run with CHT_REGEN_GOLDEN=1 once)";
  EXPECT_EQ(artifact, golden)
      << "artifact schema drifted; if intentional, bump "
         "metrics::kBenchSchemaVersion and regenerate the golden file";
  std::remove(artifact_path.c_str());
}

// Drives the same deterministic workload on one cluster.
void drive(harness::Cluster& cluster) {
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  for (int i = 0; i < 40; ++i) {
    cluster.submit((leader + 1) % cluster.n(),
                   object::KVObject::put("k" + std::to_string(i % 3),
                                         "v" + std::to_string(i)));
    cluster.run_for(Duration::millis(2));
    cluster.submit((leader + 2) % cluster.n(),
                   object::KVObject::get("k" + std::to_string(i % 3)));
    cluster.run_for(Duration::millis(8));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));
}

TEST(ObservabilityTest, MetricsCannotPerturbTheSimulation) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = 99;
  config.delta = Duration::millis(10);

  harness::Cluster with_metrics(config, std::make_shared<object::KVObject>());
  core::ConfigOverrides off;
  off.metrics_enabled = false;
  harness::Cluster without_metrics(config, std::make_shared<object::KVObject>(),
                                   off);
  drive(with_metrics);
  drive(without_metrics);

  // Event-for-event identical: same simulated end time, same message counts,
  // same history, same final object state.
  EXPECT_EQ(with_metrics.sim().now(), without_metrics.sim().now());
  EXPECT_EQ(with_metrics.sim().network().stats().sent,
            without_metrics.sim().network().stats().sent);
  const auto& a = with_metrics.history().ops();
  const auto& b = without_metrics.history().ops();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op.kind, b[i].op.kind);
    EXPECT_EQ(a[i].response, b[i].response);
    EXPECT_EQ(a[i].invoked, b[i].invoked);
    EXPECT_EQ(a[i].completed(), b[i].completed());
  }
  for (int i = 0; i < config.n; ++i) {
    EXPECT_EQ(with_metrics.replica(i).applied_state().fingerprint(),
              without_metrics.replica(i).applied_state().fingerprint());
  }
  // And the disabled registries really recorded nothing.
  for (int i = 0; i < config.n; ++i) {
    EXPECT_EQ(without_metrics.replica(i).metrics().value("reads_completed"), 0);
    const auto* h =
        without_metrics.replica(i).metrics().find_histogram("span.read.block_us");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 0);
  }
}

TEST(ObservabilityTest, SteadyRunPopulatesProtocolPhaseSpans) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = 5;
  config.delta = Duration::millis(10);
  harness::Cluster cluster(config, std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_steady_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.steady_leader();
  for (int i = 0; i < 30; ++i) {
    cluster.submit((leader + 1) % cluster.n(),
                   object::RegisterObject::write("v" + std::to_string(i)));
    cluster.run_for(Duration::millis(3));
    cluster.submit((leader + 2) % cluster.n(), object::RegisterObject::read());
    cluster.run_for(Duration::millis(9));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(20)));

  metrics::Registry merged;
  cluster.merge_metrics_into(merged);
  int populated = 0;
  for (const char* name :
       {"span.doops.prepare_us", "span.doops.gate_us", "span.doops.total_us",
        "span.leader.init_us", "span.lease.interval_us",
        "span.read.block_us"}) {
    const auto* h = merged.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    if (h->count() > 0) ++populated;
  }
  EXPECT_GE(populated, 4)
      << "steady run should exercise at least four protocol-phase spans";
  // DoOps phases nest: no prepare phase can exceed its enclosing round.
  const auto* prepare = merged.find_histogram("span.doops.prepare_us");
  const auto* total = merged.find_histogram("span.doops.total_us");
  EXPECT_LE(prepare->max(), total->max());
  // 30 writes commit in fewer DoOps rounds (batching), but well above 1.
  EXPECT_GE(total->count(), 20);
}

}  // namespace
}  // namespace cht
