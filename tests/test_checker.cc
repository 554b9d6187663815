// Linearizability checker: accepts valid histories, rejects classic
// violations, handles pending and concurrent operations, and keeps its
// search size and allocations per operation.
#include "checker/linearizability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>

#include "checker/sessions.h"
#include "common/rng.h"
#include "object/bank_object.h"
#include "object/counter_object.h"
#include "object/kv_object.h"
#include "object/register_object.h"

// Every form of global operator new is counted, so the cost gate below can
// bound the checker's allocations per operation.
static std::size_t g_allocations = 0;

static void* counted_malloc(std::size_t size) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cht::checker {
namespace {

using object::BankObject;
using object::CounterObject;
using object::RegisterObject;

RealTime rt(std::int64_t us) { return RealTime::zero() + Duration::micros(us); }

HistoryOp op(int proc, object::Operation operation, std::int64_t invoke_us,
             std::int64_t respond_us, std::string response) {
  HistoryOp h;
  h.process = ProcessId(proc);
  h.op = std::move(operation);
  h.invoked = rt(invoke_us);
  h.responded = rt(respond_us);
  h.response = std::move(response);
  return h;
}

HistoryOp pending(int proc, object::Operation operation,
                  std::int64_t invoke_us) {
  HistoryOp h;
  h.process = ProcessId(proc);
  h.op = std::move(operation);
  h.invoked = rt(invoke_us);
  return h;
}

TEST(CheckerTest, EmptyHistoryIsLinearizable) {
  RegisterObject model;
  EXPECT_TRUE(check_linearizable(model, {}).linearizable);
}

TEST(CheckerTest, SequentialHistoryAccepted) {
  RegisterObject model("0");
  std::vector<HistoryOp> h{
      op(0, RegisterObject::read(), 0, 10, "0"),
      op(0, RegisterObject::write("1"), 20, 30, "ok"),
      op(1, RegisterObject::read(), 40, 50, "1"),
  };
  EXPECT_TRUE(check_linearizable(model, h).linearizable);
}

TEST(CheckerTest, StaleReadRejected) {
  RegisterObject model("0");
  std::vector<HistoryOp> h{
      op(0, RegisterObject::write("1"), 0, 10, "ok"),
      op(1, RegisterObject::read(), 20, 30, "0"),  // stale: write completed
  };
  const auto result = check_linearizable(model, h);
  EXPECT_FALSE(result.linearizable);
  EXPECT_FALSE(result.explanation.empty());
}

TEST(CheckerTest, ConcurrentReadMayGoEitherWay) {
  RegisterObject model("0");
  // Read overlaps the write: both old and new value are linearizable.
  for (const char* value : {"0", "1"}) {
    std::vector<HistoryOp> h{
        op(0, RegisterObject::write("1"), 0, 100, "ok"),
        op(1, RegisterObject::read(), 50, 60, value),
    };
    EXPECT_TRUE(check_linearizable(model, h).linearizable) << value;
  }
}

TEST(CheckerTest, ReadNewThenOldRejected) {
  RegisterObject model("0");
  // Second read starts after the first finished; values went 1 -> 0 with no
  // intervening write: not linearizable.
  std::vector<HistoryOp> h{
      op(0, RegisterObject::write("1"), 0, 200, "ok"),
      op(1, RegisterObject::read(), 50, 60, "1"),
      op(1, RegisterObject::read(), 70, 80, "0"),
  };
  EXPECT_FALSE(check_linearizable(model, h).linearizable);
}

TEST(CheckerTest, LostUpdateRejected) {
  CounterObject model;
  // Two adds both claim to have observed only themselves.
  std::vector<HistoryOp> h{
      op(0, CounterObject::add(1), 0, 10, "1"),
      op(1, CounterObject::add(1), 20, 30, "1"),  // must have been "2"
  };
  EXPECT_FALSE(check_linearizable(model, h).linearizable);
}

TEST(CheckerTest, RmwResponsesOrderTheHistory) {
  CounterObject model;
  // Responses determine the only valid order: p1's add saw 1 first.
  std::vector<HistoryOp> h{
      op(0, CounterObject::add(1), 0, 100, "2"),
      op(1, CounterObject::add(1), 0, 100, "1"),
      op(2, CounterObject::value(), 150, 160, "2"),
  };
  const auto result = check_linearizable(model, h);
  ASSERT_TRUE(result.linearizable);
  EXPECT_EQ(result.order.size(), 3u);
}

TEST(CheckerTest, PendingOpMayTakeEffect) {
  RegisterObject model("0");
  // The write never returned, but a later read observed it: allowed.
  std::vector<HistoryOp> h{
      pending(0, RegisterObject::write("1"), 0),
      op(1, RegisterObject::read(), 50, 60, "1"),
  };
  EXPECT_TRUE(check_linearizable(model, h).linearizable);
}

TEST(CheckerTest, PendingOpMayNeverTakeEffect) {
  RegisterObject model("0");
  std::vector<HistoryOp> h{
      pending(0, RegisterObject::write("1"), 0),
      op(1, RegisterObject::read(), 50, 60, "0"),
  };
  EXPECT_TRUE(check_linearizable(model, h).linearizable);
}

TEST(CheckerTest, PendingOpCannotTakeEffectBeforeInvocation) {
  RegisterObject model("0");
  // The read *completed before* the write was even invoked.
  std::vector<HistoryOp> h{
      op(1, RegisterObject::read(), 0, 10, "1"),
      pending(0, RegisterObject::write("1"), 50),
  };
  EXPECT_FALSE(check_linearizable(model, h).linearizable);
}

TEST(CheckerTest, RmwSubhistoryFilterIgnoresReads) {
  RegisterObject model("0");
  // Full history has a stale read; the RMW sub-history is fine. This mirrors
  // the paper's clock-desync robustness claim.
  std::vector<HistoryOp> h{
      op(0, RegisterObject::write("1"), 0, 10, "ok"),
      op(1, RegisterObject::read(), 20, 30, "0"),  // stale
      op(0, RegisterObject::write("2"), 40, 50, "ok"),
  };
  EXPECT_FALSE(check_linearizable(model, h).linearizable);
  EXPECT_TRUE(check_rmw_subhistory_linearizable(model, h).linearizable);
}

TEST(CheckerTest, DeepConcurrencyStillDecided) {
  RegisterObject model("0");
  // Five fully concurrent writes and a read that saw one of them.
  std::vector<HistoryOp> h;
  for (int i = 0; i < 5; ++i) {
    h.push_back(op(i, RegisterObject::write(std::to_string(i)), 0, 100, "ok"));
  }
  h.push_back(op(5, RegisterObject::read(), 200, 210, "3"));
  EXPECT_TRUE(check_linearizable(model, h).linearizable);
  // ...but seeing a value nobody wrote is rejected.
  h.back() = op(5, RegisterObject::read(), 200, 210, "9");
  EXPECT_FALSE(check_linearizable(model, h).linearizable);
}

TEST(CheckerTest, CrossAccountPhantomRejected) {
  BankObject model;
  // A completed transfer moved 50 from a to b, yet sequential reads *after*
  // it observe the credit on b without the debit on a — a state no single
  // linearization point produces. Transfers span accounts, so bank histories
  // containing them are unpartitionable and must be caught whole.
  std::vector<HistoryOp> h{
      op(0, BankObject::deposit("a", 100), 0, 10, "100"),
      op(0, BankObject::transfer("a", "b", 50), 20, 30, "ok"),
      op(1, BankObject::balance("b"), 40, 50, "50"),
      op(1, BankObject::balance("a"), 60, 70, "100"),  // debit went missing
  };
  EXPECT_FALSE(check_linearizable(model, h).linearizable);
  // With the debit observed, the same history is fine.
  h.back() = op(1, BankObject::balance("a"), 60, 70, "50");
  EXPECT_TRUE(check_linearizable(model, h).linearizable);
}

TEST(CheckerTest, TotalObservesConservationAcrossTransfers) {
  BankObject model;
  // total() conflicts with deposits but commutes with transfers: any value
  // other than the deposited sum is rejected no matter how the concurrent
  // transfer is placed.
  std::vector<HistoryOp> h{
      op(0, BankObject::deposit("a", 100), 0, 10, "100"),
      op(0, BankObject::transfer("a", "b", 30), 20, 200, "ok"),
      op(1, BankObject::total(), 50, 60, "70"),  // transfers conserve money
  };
  EXPECT_FALSE(check_linearizable(model, h).linearizable);
  h.back() = op(1, BankObject::total(), 50, 60, "100");
  EXPECT_TRUE(check_linearizable(model, h).linearizable);
}

TEST(CheckerTest, StateBudgetYieldsUndecidedNotVerdict) {
  RegisterObject model("0");
  // Wide concurrency with an absurdly small budget: the search must give up
  // explicitly (decided == false) rather than hang or claim a verdict.
  std::vector<HistoryOp> h;
  for (int i = 0; i < 12; ++i) {
    h.push_back(op(i, RegisterObject::write(std::to_string(i)), 0, 100, "ok"));
  }
  h.push_back(op(12, RegisterObject::read(), 200, 210, "7"));
  const auto bounded = check_linearizable(model, h, /*max_states=*/3);
  EXPECT_FALSE(bounded.decided);
  EXPECT_FALSE(bounded.linearizable);
  // The same history resolves cleanly without the budget.
  const auto unbounded = check_linearizable(model, h);
  EXPECT_TRUE(unbounded.decided);
  EXPECT_TRUE(unbounded.linearizable);
}

TEST(CheckerTest, LongSequentialHistoryFast) {
  CounterObject model;
  std::vector<HistoryOp> h;
  std::int64_t t = 0;
  for (int i = 1; i <= 5000; ++i) {
    h.push_back(op(0, CounterObject::add(1), t, t + 5, std::to_string(i)));
    t += 10;
  }
  EXPECT_TRUE(check_linearizable(model, h).linearizable);
}

// --- Cost gates -------------------------------------------------------------

// A linearizable 1,000-op single-key KV history from 8 sessions, shaped like
// bench_perf's check-wide input but generated, not recorded, so protocol
// changes never move it. Each session starts its next op when the previous
// one answers; half the ops are puts of fresh values. Each op takes effect at
// a random instant inside its interval, and responses come from running the
// ops in that order: a sequential run with jittered intervals. Two sessions
// crash partway, each leaving a put pending: session 6's takes effect, so
// the search must place it from a pending pass, and session 7's never does.
std::vector<HistoryOp> wide_kv_history() {
  using object::KVObject;
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  KVObject model;
  Rng rng(1);
  std::vector<std::int64_t> free_at(8, 0);
  std::vector<std::int64_t> takes_effect;
  std::vector<HistoryOp> h;
  while (h.size() < 1000) {
    const auto session = static_cast<int>(
        std::min_element(free_at.begin(), free_at.end()) - free_at.begin());
    const bool crashes = (session == 6 && h.size() >= 300) ||
                         (session == 7 && h.size() >= 600);
    const bool put = crashes || rng.next_bool(0.5);
    // Reads answer in up to 17 us and puts in up to 45 us: check-wide's
    // read and RMW medians in ms.
    const std::int64_t length = rng.next_in(1, put ? 45 : 17);
    const std::int64_t start = free_at[session];
    h.push_back(op(session,
                   put ? KVObject::put("k", "v" + std::to_string(h.size()))
                       : KVObject::get("k"),
                   start, start + length, ""));
    takes_effect.push_back(session == 7 && crashes
                               ? kNever
                               : start + rng.next_in(0, length));
    free_at[session] = crashes ? kNever : start + length;
    if (crashes) {
      h.back().responded.reset();
      h.back().response.reset();
    }
  }
  std::vector<std::size_t> order(h.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return takes_effect[a] < takes_effect[b];
                   });
  auto state = model.make_initial_state();
  for (const std::size_t i : order) {
    if (takes_effect[i] == kNever) continue;
    const object::Response response = model.apply(*state, h[i].op);
    if (h[i].completed()) h[i].response = response;
  }
  return h;
}

TEST(CheckerCostTest, SearchSizeIsPinned) {
  // The search memoizes exactly kStates distinct states on this history
  // before it finds a linearization, the count the string-keyed search
  // reached too. A change to the visiting order or to which states the
  // memo treats as equal moves the number.
  constexpr std::size_t kStates = 49447;
  const object::KVObject model;
  const std::vector<HistoryOp> h = wide_kv_history();
  const auto full = check_linearizable(model, h);
  ASSERT_TRUE(full.decided);
  ASSERT_TRUE(full.linearizable);
  const auto enough = check_linearizable(model, h, kStates + 1);
  EXPECT_TRUE(enough.decided);
  EXPECT_EQ(enough.order, full.order);
  const auto short_by_one = check_linearizable(model, h, kStates);
  EXPECT_FALSE(short_by_one.decided);
  EXPECT_EQ(short_by_one.explanation,
            "undecided: search state budget (49447 states) exhausted; "
            "deepest progress 997/998 completed ops");
}

TEST(CheckerCostTest, AllocationsPerOperationStayBounded) {
  // Visiting a search state allocates nothing: what remains is the
  // per-history setup and one clone() per distinct transition, about 8 per
  // op. The search memoizes about 50 states per op here, so one allocation
  // per state would cross the bound.
  const object::KVObject model;
  const std::vector<HistoryOp> h = wide_kv_history();
  const std::size_t before = g_allocations;
  const auto result = check_linearizable(model, h);
  const std::size_t allocations = g_allocations - before;
  ASSERT_TRUE(result.linearizable);
  EXPECT_LT(allocations, 40 * h.size());
}

// --- Read-your-writes session guarantee (checker/sessions.h) ----------------

using object::KVObject;

TEST(ReadYourWritesTest, ReadMissingOwnWriteIsFlagged) {
  // The negative case the invariant exists for: the client's put was
  // acknowledged, yet its own later read returns the initial "". A read
  // invoked at the ack's instant is later too: a client sends its next
  // queued op in the callback that acks the previous one.
  for (const std::int64_t read_at : {20, 10}) {
    std::vector<HistoryOp> h{
        op(0, KVObject::put("k", "v1"), 0, 10, "ok"),
        op(0, KVObject::get("k"), read_at, read_at + 10, ""),
    };
    const auto violations = check_read_your_writes(h);
    ASSERT_EQ(violations.size(), 1u) << read_at;
    EXPECT_NE(violations[0].find("read-your-writes"), std::string::npos);
    EXPECT_NE(violations[0].find("put(k:v1)"), std::string::npos);
  }
}

TEST(ReadYourWritesTest, ReadOfValueOlderThanOwnWriteIsFlagged) {
  // Another client's write that finished before ours even started cannot
  // linearize after ours — reading it back means our write was skipped.
  std::vector<HistoryOp> h{
      op(1, KVObject::put("k", "old"), 0, 10, "ok"),
      op(0, KVObject::put("k", "new"), 20, 30, "ok"),
      op(0, KVObject::get("k"), 40, 50, "old"),
  };
  EXPECT_EQ(check_read_your_writes(h).size(), 1u);
}

TEST(ReadYourWritesTest, OwnValueAndNewerForeignValueAccepted) {
  std::vector<HistoryOp> h{
      op(0, KVObject::put("k", "mine"), 0, 10, "ok"),
      op(0, KVObject::get("k"), 20, 30, "mine"),
      // A foreign write invoked after ours may linearize between our write
      // and our second read.
      op(1, KVObject::put("k", "theirs"), 35, 45, "ok"),
      op(0, KVObject::get("k"), 50, 60, "theirs"),
  };
  EXPECT_TRUE(check_read_your_writes(h).empty());
}

TEST(ReadYourWritesTest, ConcurrentForeignWriteJustifiesEitherValue) {
  // The foreign write overlaps the client's own, so either order is legal.
  for (const char* value : {"mine", "theirs"}) {
    std::vector<HistoryOp> h{
        op(1, KVObject::put("k", "theirs"), 0, 100, "ok"),
        op(0, KVObject::put("k", "mine"), 50, 60, "ok"),
        op(0, KVObject::get("k"), 70, 80, value),
    };
    EXPECT_TRUE(check_read_your_writes(h).empty()) << value;
  }
}

TEST(ReadYourWritesTest, PendingDeleteJustifiesEmptyRead) {
  // A delete pending at the end of the run may have applied between the
  // client's write and its read, so "" is not (provably) a violation.
  std::vector<HistoryOp> h{
      op(0, KVObject::put("k", "v1"), 0, 10, "ok"),
      pending(1, KVObject::del("k"), 15),
      op(0, KVObject::get("k"), 20, 30, ""),
  };
  EXPECT_TRUE(check_read_your_writes(h).empty());
}

TEST(ReadYourWritesTest, OwnDeleteObligesEmptyRead) {
  std::vector<HistoryOp> h{
      op(0, KVObject::put("k", "v1"), 0, 10, "ok"),
      op(0, KVObject::del("k"), 20, 30, "ok"),
      op(0, KVObject::get("k"), 40, 50, "v1"),  // resurrected: violation
  };
  EXPECT_EQ(check_read_your_writes(h).size(), 1u);
}

TEST(ReadYourWritesTest, FailedCasCreatesNoObligation) {
  std::vector<HistoryOp> h{
      op(1, KVObject::put("k", "base"), 0, 10, "ok"),
      op(0, KVObject::cas("k", "wrong", "swapped"), 20, 30, "fail"),
      op(0, KVObject::get("k"), 40, 50, "base"),
  };
  EXPECT_TRUE(check_read_your_writes(h).empty());
}

TEST(ReadYourWritesTest, SuccessfulCasObligesItsDesiredValue) {
  std::vector<HistoryOp> h{
      op(0, KVObject::put("k", "base"), 0, 10, "ok"),
      op(0, KVObject::cas("k", "base", "swapped"), 20, 30, "ok"),
      op(0, KVObject::get("k"), 40, 50, "base"),  // pre-cas value: violation
  };
  EXPECT_EQ(check_read_your_writes(h).size(), 1u);
}

TEST(ReadYourWritesTest, UnacknowledgedOwnWriteCreatesNoObligation) {
  // The client was never told the put succeeded, so reading "" is legal.
  std::vector<HistoryOp> h{
      pending(0, KVObject::put("k", "v1"), 0),
      op(0, KVObject::get("k"), 20, 30, ""),
  };
  EXPECT_TRUE(check_read_your_writes(h).empty());
}

TEST(ReadYourWritesTest, OwnWriteStillInFlightCreatesNoObligation) {
  // On the direct-submit path a replica has several operations in flight:
  // its get overlaps its own pending put and returns the value of its
  // previous, acknowledged put. That read is legal (chtread calm seed 1 on
  // the direct path); once the put is acknowledged, it is not.
  std::vector<HistoryOp> h{
      op(4, KVObject::put("k0", "v23"), 0, 10, "ok"),
      op(4, KVObject::put("k0", "v27"), 20, 100, "ok"),
      op(4, KVObject::get("k0"), 50, 60, "v23"),
  };
  EXPECT_TRUE(check_read_your_writes(h).empty());
  h.push_back(op(4, KVObject::get("k0"), 110, 120, "v23"));
  EXPECT_EQ(check_read_your_writes(h).size(), 1u);
}

TEST(ReadYourWritesTest, OtherClientsSessionsAreIndependent) {
  // Client 1 never wrote k; reading the initial "" is fine for it even
  // though client 0's write completed long before.
  std::vector<HistoryOp> h{
      op(0, KVObject::put("k", "v1"), 0, 10, "ok"),
      op(1, KVObject::get("k"), 20, 30, ""),  // stale but not a RYW breach
  };
  EXPECT_TRUE(check_read_your_writes(h).empty());
}

}  // namespace
}  // namespace cht::checker
