// Unified chaos matrix: every protocol stack under every nemesis profile,
// a few seeds each, through the shared invariant registry. This replaces the
// bespoke per-protocol chaos suites (test_raft_chaos, test_vr_chaos and the
// randomized half of test_robustness): one parameterized body, one invariant
// registry, and a repro path — any failing cell maps 1:1 onto a
// `chtread_fuzz --protocol=... --profile=... --seed-start=...` invocation.
//
// Deeper sweeps (hundreds of seeds per cell) run in the nightly fuzz job;
// this suite pins a small deterministic corner of the same space so every
// ctest run exercises all four stacks under faults.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "chaos/adapter.h"
#include "chaos/spec.h"
#include "chaos/sweep.h"

namespace cht {
namespace {

using Cell = std::tuple<std::string, std::string, std::uint64_t>;

class ChaosMatrixTest : public ::testing::TestWithParam<Cell> {};

TEST_P(ChaosMatrixTest, InvariantsHold) {
  const auto& [protocol, profile, seed] = GetParam();
  chaos::RunSpec spec;
  spec.protocol = protocol;
  spec.profile = profile;
  spec.seed = seed;
  spec.ops = 40;
  // Rotate the object model per seed so the matrix also covers the
  // unpartitionable single-object types (counter, bank, queue, lock).
  const auto& objects = chaos::known_objects();
  spec.object = objects[static_cast<std::size_t>(seed) % objects.size()];

  const chaos::RunResult result = chaos::run_one(spec);
  EXPECT_TRUE(result.checker_decided)
      << "linearizability search exhausted its state budget";
  std::string all;
  for (const auto& v : result.violations) all += "\n  " + v;
  EXPECT_TRUE(result.ok()) << "seed " << seed << " object " << spec.object
                           << " violations:" << all;
  EXPECT_GT(result.completed, 0u);
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                     "_seed" + std::to_string(std::get<2>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ChaosMatrixTest,
    ::testing::Combine(::testing::ValuesIn(chaos::known_protocols()),
                       ::testing::ValuesIn(chaos::known_profiles()),
                       ::testing::Values(1u, 2u, 3u)),
    cell_name);

// Key-loss extremes: the default sweep runs power cycles at
// unsynced_key_loss = 0.5, which can mask bugs that only show at the
// boundaries. 1.0 is the adversarial disk (every unsynced keyed write dies
// with the crash — recovery must rebuild from the durable prefix alone);
// 0.0 is the lucky disk (everything unsynced survives — recovery must not
// be confused by state it never acknowledged). Both must stay linearizable
// and durable on every stack.
using LossCell = std::tuple<std::string, double, std::uint64_t>;

class KeyLossExtremesTest : public ::testing::TestWithParam<LossCell> {};

TEST_P(KeyLossExtremesTest, InvariantsHoldAtTheBoundary) {
  const auto& [protocol, key_loss, seed] = GetParam();
  chaos::RunSpec spec;
  spec.protocol = protocol;
  spec.profile = "power-cycle";
  spec.seed = seed;
  spec.ops = 40;
  spec.unsynced_key_loss = key_loss;
  const auto& objects = chaos::known_objects();
  spec.object = objects[static_cast<std::size_t>(seed) % objects.size()];

  const chaos::RunResult result = chaos::run_one(spec);
  EXPECT_TRUE(result.checker_decided)
      << "linearizability search exhausted its state budget";
  std::string all;
  for (const auto& v : result.violations) all += "\n  " + v;
  EXPECT_TRUE(result.ok()) << "seed " << seed << " key_loss " << key_loss
                           << " object " << spec.object << " violations:"
                           << all;
  EXPECT_GT(result.completed, 0u);
}

std::string loss_cell_name(const ::testing::TestParamInfo<LossCell>& info) {
  std::string name = std::get<0>(info.param) +
                     (std::get<1>(info.param) > 0.5 ? "_loss1" : "_loss0") +
                     "_seed" + std::to_string(std::get<2>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    LossExtremes, KeyLossExtremesTest,
    ::testing::Combine(::testing::ValuesIn(chaos::known_protocols()),
                       ::testing::Values(0.0, 1.0),
                       ::testing::Values(2u, 6u)),
    loss_cell_name);

// The driver paces a run in simulated time alone. On the direct path with
// no faults and no in-flight cap, nothing a stack does can skip or stall a
// submission, so every stack must get each operation at the same instant,
// however sparse its own events are.
TEST(ChaosPacingTest, EveryStackGetsEachOperationAtTheSameInstant) {
  chaos::RunSpec spec;
  spec.profile = "calm";
  spec.client_path = false;
  spec.seed = 3;
  spec.max_inflight = spec.ops;
  std::vector<std::vector<RealTime>> invoked;
  for (const char* protocol : {"chtread", "raft", "vr"}) {
    spec.protocol = protocol;
    const auto cluster = chaos::make_adapter(spec);
    chaos::run(*cluster, spec);
    std::vector<RealTime>& at = invoked.emplace_back();
    for (const auto& op : cluster->history().ops()) at.push_back(op.invoked);
  }
  ASSERT_EQ(invoked[0].size(), static_cast<std::size_t>(spec.ops));
  EXPECT_EQ(invoked[1], invoked[0]) << "raft";
  EXPECT_EQ(invoked[2], invoked[0]) << "vr";
}

}  // namespace
}  // namespace cht
