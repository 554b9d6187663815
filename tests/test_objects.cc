#include <gtest/gtest.h>

#include <memory>

#include "object/bank_object.h"
#include "object/counter_object.h"
#include "object/kv_object.h"
#include "object/lock_object.h"
#include "object/queue_object.h"
#include "object/register_object.h"

namespace cht::object {
namespace {

// --- Register ---------------------------------------------------------------

TEST(RegisterObjectTest, ReadAndWrite) {
  RegisterObject model("init");
  auto state = model.make_initial_state();
  EXPECT_EQ(model.apply(*state, RegisterObject::read()), "init");
  EXPECT_EQ(model.apply(*state, RegisterObject::write("x")), "ok");
  EXPECT_EQ(model.apply(*state, RegisterObject::read()), "x");
}

TEST(RegisterObjectTest, Classification) {
  RegisterObject model;
  EXPECT_TRUE(model.is_read(RegisterObject::read()));
  EXPECT_FALSE(model.is_read(RegisterObject::write("x")));
  EXPECT_FALSE(model.is_read(no_op()));
  EXPECT_TRUE(model.conflicts(RegisterObject::read(), RegisterObject::write("x")));
  EXPECT_FALSE(model.conflicts(RegisterObject::read(), no_op()));
}

TEST(RegisterObjectTest, CloneIsIndependent) {
  RegisterObject model;
  auto state = model.make_initial_state();
  model.apply(*state, RegisterObject::write("a"));
  auto copy = state->clone();
  model.apply(*state, RegisterObject::write("b"));
  EXPECT_EQ(model.apply(*copy, RegisterObject::read()), "a");
  EXPECT_EQ(model.apply(*state, RegisterObject::read()), "b");
}

TEST(RegisterObjectTest, FingerprintTracksValue) {
  RegisterObject model;
  auto a = model.make_initial_state();
  auto b = model.make_initial_state();
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  model.apply(*a, RegisterObject::write("z"));
  EXPECT_NE(a->fingerprint(), b->fingerprint());
}

// --- KV ----------------------------------------------------------------------

TEST(KVObjectTest, PutGetDelete) {
  KVObject model;
  auto state = model.make_initial_state();
  EXPECT_EQ(model.apply(*state, KVObject::get("k")), "");
  EXPECT_EQ(model.apply(*state, KVObject::put("k", "v1")), "ok");
  EXPECT_EQ(model.apply(*state, KVObject::get("k")), "v1");
  EXPECT_EQ(model.apply(*state, KVObject::size()), "1");
  EXPECT_EQ(model.apply(*state, KVObject::del("k")), "ok");
  EXPECT_EQ(model.apply(*state, KVObject::get("k")), "");
  EXPECT_EQ(model.apply(*state, KVObject::size()), "0");
}

TEST(KVObjectTest, CompareAndSwap) {
  KVObject model;
  auto state = model.make_initial_state();
  EXPECT_EQ(model.apply(*state, KVObject::cas("k", "", "v1")), "ok");
  EXPECT_EQ(model.apply(*state, KVObject::cas("k", "wrong", "v2")), "fail");
  EXPECT_EQ(model.apply(*state, KVObject::get("k")), "v1");
  EXPECT_EQ(model.apply(*state, KVObject::cas("k", "v1", "v2")), "ok");
  EXPECT_EQ(model.apply(*state, KVObject::get("k")), "v2");
}

TEST(KVObjectTest, PerKeyConflicts) {
  KVObject model;
  EXPECT_TRUE(model.conflicts(KVObject::get("a"), KVObject::put("a", "1")));
  EXPECT_FALSE(model.conflicts(KVObject::get("a"), KVObject::put("b", "1")));
  EXPECT_TRUE(model.conflicts(KVObject::get("a"), KVObject::del("a")));
  EXPECT_FALSE(model.conflicts(KVObject::get("a"), KVObject::cas("b", "", "x")));
  EXPECT_TRUE(model.conflicts(KVObject::size(), KVObject::put("a", "1")));
  EXPECT_FALSE(model.conflicts(KVObject::get("a"), no_op()));
}

TEST(KVObjectTest, FingerprintOrderIndependent) {
  KVObject model;
  auto a = model.make_initial_state();
  auto b = model.make_initial_state();
  model.apply(*a, KVObject::put("x", "1"));
  model.apply(*a, KVObject::put("y", "2"));
  model.apply(*b, KVObject::put("y", "2"));
  model.apply(*b, KVObject::put("x", "1"));
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
}

// --- Counter ------------------------------------------------------------------

TEST(CounterObjectTest, AddReturnsNewValue) {
  CounterObject model;
  auto state = model.make_initial_state();
  EXPECT_EQ(model.apply(*state, CounterObject::add(5)), "5");
  EXPECT_EQ(model.apply(*state, CounterObject::add(-2)), "3");
  EXPECT_EQ(model.apply(*state, CounterObject::value()), "3");
  EXPECT_EQ(model.apply(*state, CounterObject::parity()), "odd");
}

TEST(CounterObjectTest, SemanticConflictPredicate) {
  CounterObject model;
  // parity() is unaffected by even increments: exact, not conservative.
  EXPECT_FALSE(model.conflicts(CounterObject::parity(), CounterObject::add(2)));
  EXPECT_TRUE(model.conflicts(CounterObject::parity(), CounterObject::add(3)));
  EXPECT_TRUE(model.conflicts(CounterObject::value(), CounterObject::add(1)));
  EXPECT_FALSE(model.conflicts(CounterObject::value(), CounterObject::add(0)));
  EXPECT_FALSE(model.conflicts(CounterObject::value(), no_op()));
}

// --- Bank ---------------------------------------------------------------------

TEST(BankObjectTest, DepositsAndTransfers) {
  BankObject model;
  auto state = model.make_initial_state();
  EXPECT_EQ(model.apply(*state, BankObject::deposit("a", 100)), "100");
  EXPECT_EQ(model.apply(*state, BankObject::transfer("a", "b", 30)), "ok");
  EXPECT_EQ(model.apply(*state, BankObject::balance("a")), "70");
  EXPECT_EQ(model.apply(*state, BankObject::balance("b")), "30");
  EXPECT_EQ(model.apply(*state, BankObject::total()), "100");
  EXPECT_EQ(model.apply(*state, BankObject::transfer("a", "b", 1000)),
            "insufficient");
  EXPECT_EQ(model.apply(*state, BankObject::total()), "100");
}

TEST(BankObjectTest, TotalConflictsOnlyWithDeposits) {
  BankObject model;
  EXPECT_TRUE(model.conflicts(BankObject::total(), BankObject::deposit("a", 1)));
  EXPECT_FALSE(
      model.conflicts(BankObject::total(), BankObject::transfer("a", "b", 1)));
}

TEST(BankObjectTest, BalanceConflictsPerAccount) {
  BankObject model;
  EXPECT_TRUE(
      model.conflicts(BankObject::balance("a"), BankObject::deposit("a", 1)));
  EXPECT_FALSE(
      model.conflicts(BankObject::balance("c"), BankObject::deposit("a", 1)));
  EXPECT_TRUE(model.conflicts(BankObject::balance("b"),
                              BankObject::transfer("a", "b", 1)));
  EXPECT_FALSE(model.conflicts(BankObject::balance("c"),
                               BankObject::transfer("a", "b", 1)));
}

// --- Lock ----------------------------------------------------------------------

TEST(LockObjectTest, AcquireReleaseSemantics) {
  LockObject model;
  auto state = model.make_initial_state();
  EXPECT_EQ(model.apply(*state, LockObject::holder()), "");
  EXPECT_EQ(model.apply(*state, LockObject::try_acquire("p1")), "ok");
  EXPECT_EQ(model.apply(*state, LockObject::try_acquire("p2")), "held");
  EXPECT_EQ(model.apply(*state, LockObject::try_acquire("p1")), "ok");
  EXPECT_EQ(model.apply(*state, LockObject::holder()), "p1");
  EXPECT_EQ(model.apply(*state, LockObject::release("p2")), "not-held");
  EXPECT_EQ(model.apply(*state, LockObject::release("p1")), "ok");
  EXPECT_EQ(model.apply(*state, LockObject::holder()), "");
}

// --- Queue ---------------------------------------------------------------------

TEST(QueueObjectTest, FifoSemantics) {
  QueueObject model;
  auto state = model.make_initial_state();
  EXPECT_EQ(model.apply(*state, QueueObject::front()), "");
  EXPECT_EQ(model.apply(*state, QueueObject::dequeue()), "");
  EXPECT_EQ(model.apply(*state, QueueObject::enqueue("a")), "1");
  EXPECT_EQ(model.apply(*state, QueueObject::enqueue("b")), "2");
  EXPECT_EQ(model.apply(*state, QueueObject::front()), "a");
  EXPECT_EQ(model.apply(*state, QueueObject::length()), "2");
  EXPECT_EQ(model.apply(*state, QueueObject::dequeue()), "a");
  EXPECT_EQ(model.apply(*state, QueueObject::front()), "b");
  EXPECT_EQ(model.apply(*state, QueueObject::dequeue()), "b");
  EXPECT_EQ(model.apply(*state, QueueObject::length()), "0");
}

TEST(QueueObjectTest, Classification) {
  QueueObject model;
  EXPECT_TRUE(model.is_read(QueueObject::front()));
  EXPECT_TRUE(model.is_read(QueueObject::length()));
  EXPECT_FALSE(model.is_read(QueueObject::enqueue("x")));
  EXPECT_FALSE(model.is_read(QueueObject::dequeue()));
  EXPECT_TRUE(model.conflicts(QueueObject::front(), QueueObject::dequeue()));
  EXPECT_FALSE(model.conflicts(QueueObject::front(), no_op()));
}

TEST(QueueObjectTest, FingerprintDistinguishesOrder) {
  QueueObject model;
  auto a = model.make_initial_state();
  auto b = model.make_initial_state();
  model.apply(*a, QueueObject::enqueue("x"));
  model.apply(*a, QueueObject::enqueue("y"));
  model.apply(*b, QueueObject::enqueue("y"));
  model.apply(*b, QueueObject::enqueue("x"));
  EXPECT_NE(a->fingerprint(), b->fingerprint());
}

// --- Fingerprints are exact --------------------------------------------------

// Pairs of different states whose fields, joined with separators, would
// print the same: keys, values, accounts and items that contain '=', ';' or
// '|'. The checker takes a fingerprint as the state's identity, so each
// pair must print differently.
TEST(FingerprintTest, SeparatorCharactersDoNotCollide) {
  KVObject kv;
  auto kv_a = kv.make_initial_state();
  auto kv_b = kv.make_initial_state();
  kv.apply(*kv_a, KVObject::put("a=b", "c"));
  kv.apply(*kv_b, KVObject::put("a", "b=c"));
  EXPECT_NE(kv_a->fingerprint(), kv_b->fingerprint());
  auto kv_c = kv.make_initial_state();
  auto kv_d = kv.make_initial_state();
  kv.apply(*kv_c, KVObject::put("a", "1;b=2"));
  kv.apply(*kv_d, KVObject::put("a", "1"));
  kv.apply(*kv_d, KVObject::put("b", "2"));
  EXPECT_NE(kv_c->fingerprint(), kv_d->fingerprint());

  BankObject bank;
  auto bank_a = bank.make_initial_state();
  auto bank_b = bank.make_initial_state();
  bank.apply(*bank_a, BankObject::deposit("x=1;y", 2));
  bank.apply(*bank_b, BankObject::deposit("x", 1));
  bank.apply(*bank_b, BankObject::deposit("y", 2));
  EXPECT_NE(bank_a->fingerprint(), bank_b->fingerprint());

  QueueObject queue;
  auto queue_a = queue.make_initial_state();
  auto queue_b = queue.make_initial_state();
  queue.apply(*queue_a, QueueObject::enqueue("a|b"));
  queue.apply(*queue_b, QueueObject::enqueue("a"));
  queue.apply(*queue_b, QueueObject::enqueue("b"));
  EXPECT_NE(queue_a->fingerprint(), queue_b->fingerprint());
}

// --- Arg codec ------------------------------------------------------------------

TEST(ArgCodecTest, RoundTrip) {
  const std::string encoded = encode_args({"a", "bb", "ccc"});
  EXPECT_EQ(arg_field(encoded, 0), "a");
  EXPECT_EQ(arg_field(encoded, 1), "bb");
  EXPECT_EQ(arg_field(encoded, 2), "ccc");
}

TEST(ArgCodecTest, EmptyFields) {
  const std::string encoded = encode_args({"", "x", ""});
  EXPECT_EQ(arg_field(encoded, 0), "");
  EXPECT_EQ(arg_field(encoded, 1), "x");
  EXPECT_EQ(arg_field(encoded, 2), "");
}

// --- NoOp must be accepted by every model ----------------------------------------

TEST(NoOpTest, AllModelsAcceptNoOp) {
  std::vector<std::unique_ptr<ObjectModel>> models;
  models.push_back(std::make_unique<RegisterObject>());
  models.push_back(std::make_unique<KVObject>());
  models.push_back(std::make_unique<CounterObject>());
  models.push_back(std::make_unique<BankObject>());
  models.push_back(std::make_unique<LockObject>());
  models.push_back(std::make_unique<QueueObject>());
  for (const auto& model : models) {
    auto state = model->make_initial_state();
    const std::string before = state->fingerprint();
    EXPECT_EQ(model->apply(*state, no_op()), "ok") << model->name();
    EXPECT_EQ(state->fingerprint(), before) << model->name();
    EXPECT_FALSE(model->is_read(no_op())) << model->name();
  }
}

}  // namespace
}  // namespace cht::object
