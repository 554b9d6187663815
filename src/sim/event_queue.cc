#include "sim/event_queue.h"

#include <utility>

#include "common/assert.h"
#include "sim/network.h"
#include "sim/process.h"

namespace cht::sim {

std::uint32_t EventQueue::acquire(RealTime at) {
  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  push(at, slot);
  return slot;
}

void EventQueue::push(RealTime at, std::uint32_t slot) {
  CHT_ASSERT(at >= now_, "cannot schedule an event in the past");
  slots_[slot].pending = true;
  heap_.push(Key{at, next_seq_++, slot, slots_[slot].generation});
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;
  s.pending = false;
  s.owner = nullptr;
  s.network = nullptr;
  free_.push_back(slot);
}

EventHandle EventQueue::schedule(RealTime at, std::function<void()> fn,
                                 const Process* owner) {
  const std::uint32_t slot = acquire(at);
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.owner = owner;
  return EventHandle(this, slot, s.generation);
}

void EventQueue::schedule_delivery(RealTime at, Network& network,
                                   Message message) {
  Slot& s = slots_[acquire(at)];
  s.network = &network;
  s.message = std::move(message);
}

void EventQueue::rearm(RealTime at) {
  CHT_ASSERT(firing_ != kNoSlot, "rearm() outside a timer callback");
  CHT_ASSERT(!slots_[firing_].pending, "timer re-armed twice");
  push(at, firing_);
}

bool EventQueue::pending(std::uint32_t slot, std::uint32_t generation) const {
  const Slot& s = slots_[slot];
  return s.generation == generation && s.pending;
}

void EventQueue::cancel(std::uint32_t slot, std::uint32_t generation) {
  if (!pending(slot, generation)) return;
  // Destroyed only after the slot is released: a callback's captures may
  // schedule or cancel events as they die.
  const std::function<void()> doomed = std::move(slots_[slot].fn);
  release(slot);
}

void EventQueue::drop_stale() const {
  while (!heap_.empty() &&
         slots_[heap_.top().slot].generation != heap_.top().generation) {
    heap_.pop();
  }
}

bool EventQueue::empty() const {
  drop_stale();
  return heap_.empty();
}

RealTime EventQueue::next_event_time() const {
  drop_stale();
  return heap_.empty() ? RealTime::max() : heap_.top().at;
}

void EventQueue::advance_to(RealTime t) {
  CHT_ASSERT(t >= now_, "event queue time went backwards");
  CHT_ASSERT(next_event_time() > t, "advance_to would skip a pending event");
  now_ = t;
}

bool EventQueue::step() {
  drop_stale();
  if (heap_.empty()) return false;
  const Key key = heap_.top();
  heap_.pop();
  CHT_ASSERT(key.at >= now_, "event queue time went backwards");
  now_ = key.at;
  Slot& s = slots_[key.slot];
  if (s.network != nullptr) {
    Network& network = *s.network;
    const Message message = std::move(s.message);
    release(key.slot);
    network.deliver(message);
    return true;
  }
  if (s.owner != nullptr && s.owner->crashed()) {
    cancel(key.slot, key.generation);
    return true;
  }
  // The slot stays claimed while the callback runs, which may grow the slab
  // or rearm the timer.
  std::function<void()> fn = std::move(s.fn);
  s.pending = false;
  firing_ = key.slot;
  fn();
  firing_ = kNoSlot;
  Slot& after = slots_[key.slot];
  if (after.generation != key.generation) return true;  // rearmed, cancelled
  if (after.pending) {
    after.fn = std::move(fn);
  } else {
    release(key.slot);
  }
  return true;
}

}  // namespace cht::sim
