// Differential validation of the linearizability checker: on small random
// histories, compare its verdict against a brute-force reference that tries
// every real-time-respecting permutation (and every take-effect subset of
// pending operations).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "checker/linearizability.h"
#include "common/rng.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht::checker {
namespace {

using object::KVObject;
using object::ObjectModel;
using object::RegisterObject;

// Reference: recursive enumeration without memoization or pruning beyond
// the definition itself.
bool brute_force(const ObjectModel& model, const std::vector<HistoryOp>& ops) {
  const std::size_t n = ops.size();
  std::vector<bool> used(n, false);
  std::size_t completed_left = 0;
  for (const auto& op : ops) {
    if (op.completed()) ++completed_left;
  }

  std::function<bool(object::ObjectState&, std::size_t)> rec =
      [&](object::ObjectState& state, std::size_t remaining_completed) {
        if (remaining_completed == 0) return true;
        for (std::size_t i = 0; i < n; ++i) {
          if (used[i]) continue;
          // Real-time precedence: i cannot be next if some unused op's
          // response precedes i's invocation.
          bool blocked = false;
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i || used[j] || !ops[j].completed()) continue;
            if (*ops[j].responded < ops[i].invoked) {
              blocked = true;
              break;
            }
          }
          if (blocked) continue;
          auto next = state.clone();
          const auto got = model.apply(*next, ops[i].op);
          if (ops[i].completed() && got != *ops[i].response) continue;
          used[i] = true;
          const bool ok =
              rec(*next, remaining_completed - (ops[i].completed() ? 1 : 0));
          used[i] = false;
          if (ok) return true;
        }
        return false;
      };
  auto state = model.make_initial_state();
  return rec(*state, completed_left);
}

// Checks that `order` (indices into the invocation-sorted history) is a
// linearization of `ops`: each op at most once, every completed op present,
// real-time precedence respected, and a replay that reproduces every
// completed op's response.
void expect_valid_linearization(const ObjectModel& model,
                                const std::vector<HistoryOp>& ops,
                                const std::vector<std::size_t>& order) {
  std::vector<HistoryOp> sorted = ops;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const HistoryOp& a, const HistoryOp& b) {
                     return a.invoked < b.invoked;
                   });
  std::vector<bool> placed(sorted.size(), false);
  auto replay = model.make_initial_state();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t index = order[k];
    ASSERT_LT(index, sorted.size());
    ASSERT_FALSE(placed[index]) << "op " << index << " placed twice";
    placed[index] = true;
    const auto& op = sorted[index];
    const auto got = model.apply(*replay, op.op);
    if (op.completed()) {
      ASSERT_EQ(got, *op.response) << "op " << index;
    }
    for (std::size_t later = k + 1; later < order.size(); ++later) {
      const auto& after = sorted[order[later]];
      ASSERT_FALSE(after.completed() && *after.responded < op.invoked)
          << "op " << order[later] << " answered before op " << index
          << " was invoked, yet follows it";
    }
  }
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].completed()) {
      ASSERT_TRUE(placed[i]) << "op " << i;
    }
  }
}

TEST(CheckerDifferentialTest, MatchesBruteForceOnRandomHistories) {
  RegisterObject model("0");
  Rng rng(2024);
  int linearizable_count = 0;
  int violation_count = 0;
  for (int round = 0; round < 400; ++round) {
    // Random small history: overlapping intervals, writes of small values,
    // reads of possibly-wrong values, occasional pending ops.
    const int n_ops = static_cast<int>(rng.next_in(2, 7));
    std::vector<HistoryOp> ops;
    for (int i = 0; i < n_ops; ++i) {
      HistoryOp op;
      op.process = ProcessId(static_cast<int>(rng.next_below(3)));
      const std::int64_t invoke = rng.next_in(0, 60);
      op.invoked = RealTime::micros(invoke);
      const bool pending = rng.next_bool(0.2);
      if (!pending) {
        op.responded = RealTime::micros(invoke + rng.next_in(1, 40));
      }
      if (rng.next_bool(0.5)) {
        op.op = RegisterObject::write(std::to_string(rng.next_in(0, 2)));
        if (!pending) op.response = "ok";
      } else {
        op.op = RegisterObject::read();
        if (!pending) op.response = std::to_string(rng.next_in(0, 2));
      }
      ops.push_back(op);
    }
    const bool expected = brute_force(model, ops);
    const bool got = check_linearizable(model, ops).linearizable;
    ASSERT_EQ(got, expected) << "divergence at round " << round;
    if (expected) {
      ++linearizable_count;
    } else {
      ++violation_count;
    }
  }
  // The generator must exercise both verdicts meaningfully.
  EXPECT_GT(linearizable_count, 50);
  EXPECT_GT(violation_count, 50);
}

TEST(CheckerDifferentialTest, OrderReturnedIsAValidLinearization) {
  RegisterObject model("0");
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    // Generate a history from an actual sequential execution, then jitter
    // the intervals so it stays linearizable.
    std::vector<HistoryOp> ops;
    auto state = model.make_initial_state();
    std::int64_t t = 0;
    for (int i = 0; i < 6; ++i) {
      HistoryOp op;
      op.process = ProcessId(0);
      op.op = rng.next_bool(0.5)
                  ? RegisterObject::write(std::to_string(i))
                  : RegisterObject::read();
      op.response = model.apply(*state, op.op);
      op.invoked = RealTime::micros(t);
      op.responded = RealTime::micros(t + rng.next_in(1, 9));
      t += 10;
      ops.push_back(op);
    }
    const auto result = check_linearizable(model, ops);
    ASSERT_TRUE(result.linearizable);
    ASSERT_EQ(result.order.size(), ops.size());
    expect_valid_linearization(model, ops, result.order);
  }
}

// Random small KV histories over one to three keys: puts, gets and
// compare-and-swaps over three values, some left pending. With more than
// one key the checker splits the history per key (partition_label); brute
// force checks it whole, so the two agreeing also tests that split.
std::vector<HistoryOp> random_kv_history(Rng& rng) {
  static const char* const kKeys[] = {"a", "b", "c"};
  static const char* const kValues[] = {"", "x", "y"};
  const auto keys = static_cast<std::size_t>(rng.next_in(1, 3));
  const int n_ops = static_cast<int>(rng.next_in(2, 7));
  std::vector<HistoryOp> ops;
  for (int i = 0; i < n_ops; ++i) {
    HistoryOp op;
    op.process = ProcessId(static_cast<int>(rng.next_below(3)));
    const std::int64_t invoke = rng.next_in(0, 60);
    op.invoked = RealTime::micros(invoke);
    const bool pending = rng.next_bool(0.2);
    if (!pending) op.responded = RealTime::micros(invoke + rng.next_in(1, 40));
    const std::string key = kKeys[rng.next_below(keys)];
    const std::string value = kValues[rng.next_in(1, 2)];
    std::string response;
    switch (rng.next_below(3)) {
      case 0:
        op.op = KVObject::put(key, value);
        response = "ok";
        break;
      case 1:
        op.op = KVObject::get(key);
        response = kValues[rng.next_below(3)];
        break;
      default:
        op.op = KVObject::cas(key, kValues[rng.next_below(3)], value);
        response = rng.next_bool(0.5) ? "ok" : "fail";
        break;
    }
    if (!pending) op.response = response;
    ops.push_back(op);
  }
  return ops;
}

TEST(CheckerDifferentialTest, MatchesBruteForceOnRandomKvHistories) {
  KVObject model;
  Rng rng(2025);
  int linearizable_count = 0;
  int violation_count = 0;
  int decided_with_budget = 0;
  int undecided_with_budget = 0;
  for (int round = 0; round < 1500; ++round) {
    const std::vector<HistoryOp> ops = random_kv_history(rng);
    const bool expected = brute_force(model, ops);
    const auto result = check_linearizable(model, ops);
    ASSERT_TRUE(result.decided) << "round " << round;
    ASSERT_EQ(result.linearizable, expected) << "divergence at round " << round;
    (expected ? linearizable_count : violation_count)++;
    // A state budget may leave the verdict open, but a verdict it reaches
    // must be the right one.
    const auto budget = static_cast<std::size_t>(rng.next_in(1, 12));
    const auto bounded = check_linearizable(model, ops, budget);
    if (bounded.decided) {
      ASSERT_EQ(bounded.linearizable, expected)
          << "divergence at round " << round << " with budget " << budget;
      ++decided_with_budget;
    } else {
      ASSERT_FALSE(bounded.linearizable) << "round " << round;
      ++undecided_with_budget;
    }
  }
  EXPECT_GT(linearizable_count, 300);
  EXPECT_GT(violation_count, 300);
  EXPECT_GT(decided_with_budget, 300);
  EXPECT_GT(undecided_with_budget, 100);
}

TEST(CheckerDifferentialTest, OrderWithPendingOpsIsAValidLinearization) {
  // Register histories are never partitioned, so `order` is a whole
  // linearization; it names the pending ops that took effect and omits the
  // rest.
  RegisterObject model("0");
  Rng rng(11);
  int with_pending = 0;
  for (int round = 0; round < 400; ++round) {
    std::vector<HistoryOp> ops;
    for (int i = 0; i < 7; ++i) {
      HistoryOp op;
      op.process = ProcessId(static_cast<int>(rng.next_below(3)));
      const std::int64_t invoke = rng.next_in(0, 60);
      op.invoked = RealTime::micros(invoke);
      const bool pending = rng.next_bool(0.3);
      if (!pending) {
        op.responded = RealTime::micros(invoke + rng.next_in(1, 40));
      }
      if (rng.next_bool(0.5)) {
        op.op = RegisterObject::write(std::to_string(rng.next_in(0, 2)));
        if (!pending) op.response = "ok";
      } else {
        op.op = RegisterObject::read();
        if (!pending) op.response = std::to_string(rng.next_in(0, 2));
      }
      ops.push_back(op);
    }
    const auto result = check_linearizable(model, ops);
    ASSERT_EQ(result.linearizable, brute_force(model, ops)) << round;
    if (!result.linearizable) continue;
    if (std::any_of(ops.begin(), ops.end(),
                    [](const HistoryOp& op) { return !op.completed(); })) {
      ++with_pending;
    }
    expect_valid_linearization(model, ops, result.order);
  }
  EXPECT_GT(with_pending, 50);
}

}  // namespace
}  // namespace cht::checker
