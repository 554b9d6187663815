#include "chaos/workload.h"

#include "common/assert.h"
#include "object/bank_object.h"
#include "object/counter_object.h"
#include "object/kv_object.h"
#include "object/lock_object.h"
#include "object/queue_object.h"

namespace cht::chaos {

WorkloadGen::WorkloadGen(const RunSpec& spec, std::uint64_t seed)
    : object_(spec.object),
      read_fraction_(spec.read_fraction),
      key_skew_(spec.key_skew),
      rng_(seed) {}

std::string WorkloadGen::pick_key() {
  // Geometric skew: key 0 is hottest; with skew 0 the draw is uniform.
  int k = 0;
  if (key_skew_ <= 0) {
    k = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(kKeys)));
  } else {
    while (k < kKeys - 1 && !rng_.next_bool(key_skew_)) ++k;
  }
  return "k" + std::to_string(k);
}

object::Operation WorkloadGen::next() {
  const bool read = rng_.next_bool(read_fraction_);
  const std::string value = "v" + std::to_string(seq_++);
  if (object_ == "kv") {
    if (read) {
      return rng_.next_bool(0.9) ? object::KVObject::get(pick_key())
                                 : object::KVObject::size();
    }
    const std::string key = pick_key();
    const double kind = rng_.next_double();
    if (kind < 0.7) return object::KVObject::put(key, value);
    if (kind < 0.85) return object::KVObject::del(key);
    return object::KVObject::cas(key, value, "swapped-" + value);
  }
  if (object_ == "counter") {
    if (read) {
      return rng_.next_bool(0.5) ? object::CounterObject::value()
                                 : object::CounterObject::parity();
    }
    return object::CounterObject::add(rng_.next_in(-3, 7));
  }
  if (object_ == "bank") {
    if (read) {
      return rng_.next_bool(0.7) ? object::BankObject::balance(pick_key())
                                 : object::BankObject::total();
    }
    if (rng_.next_bool(0.5)) {
      return object::BankObject::deposit(pick_key(), rng_.next_in(1, 50));
    }
    const std::string from = pick_key();
    std::string to = pick_key();
    if (to == from) to = "k" + std::to_string(kKeys - 1);
    return object::BankObject::transfer(from, to, rng_.next_in(1, 30));
  }
  if (object_ == "queue") {
    if (read) {
      return rng_.next_bool(0.6) ? object::QueueObject::front()
                                 : object::QueueObject::length();
    }
    return rng_.next_bool(0.6) ? object::QueueObject::enqueue(value)
                               : object::QueueObject::dequeue();
  }
  if (object_ == "lock") {
    const std::string who = "c" + std::to_string(rng_.next_in(0, 3));
    if (read) return object::LockObject::holder();
    return rng_.next_bool(0.6) ? object::LockObject::try_acquire(who)
                               : object::LockObject::release(who);
  }
  CHT_ASSERT(false, "unknown workload object");
  return {};
}

}  // namespace cht::chaos
