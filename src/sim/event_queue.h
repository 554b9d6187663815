// Deterministic discrete-event queue.
//
// Events are ordered by (real time, insertion sequence), so two events at the
// same instant fire in insertion order and every run of the simulator is a
// deterministic function of its seed.
//
// An event is one of two kinds:
//   - a timer runs a callback. A timer scheduled with an owner process is
//     skipped (but still taken as a step) once that process has crashed;
//   - a delivery hands a Message to the Network that scheduled it.
//
// Scheduling and firing allocate nothing once the queue has warmed up. Each
// pending event lives in a slot of a slab (a vector of reusable slots plus a
// free list), and the heap holds only 24-byte keys (at, seq, slot,
// generation). A slot's generation goes up each time its event fires or is
// cancelled; a key whose generation no longer matches its slot is stale and
// skipped when popped. An EventHandle names {queue, slot, generation}, so it
// reads inactive once its event has fired or been cancelled, and it can never
// cancel a later event that reuses the slot.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/time.h"
#include "sim/message.h"

namespace cht::sim {

class EventQueue;
class Network;
class Process;

// Handle for cancelling a scheduled timer. Default-constructed handles are
// inert. Copyable; cancelling any copy cancels the timer. Cancelling a timer
// that already fired, or one's own handle from inside its callback, does
// nothing. A handle refers to its queue, so it must not outlive it.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel();
  bool active() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  // Handles point at the queue.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules a timer. If `owner` is given, it must outlive the timer, and
  // the timer does not run once the owner has crashed.
  EventHandle schedule(RealTime at, std::function<void()> fn,
                       const Process* owner = nullptr);

  // Schedules delivery of `message` through `network`, which must outlive
  // the event.
  void schedule_delivery(RealTime at, Network& network, Message message);

  // Called from inside a timer's callback: schedules that same timer again
  // at `at`, so its handles stay valid and can still cancel it.
  void rearm(RealTime at);

  // Runs the next live event, advancing the queue clock. Returns false if
  // the queue is empty.
  bool step();

  RealTime now() const { return now_; }
  bool empty() const;
  std::size_t size() const { return heap_.size(); }  // includes stale keys

  // Real time of the next pending event; RealTime::max() if none.
  RealTime next_event_time() const;

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct Key {
    RealTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  static_assert(sizeof(Key) == 24);
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::uint32_t generation = 0;
    bool pending = false;
    // Timers: the callback, and the process whose crash silences it.
    std::function<void()> fn;
    const Process* owner = nullptr;
    // Deliveries: where to hand the message.
    Network* network = nullptr;
    Message message;
  };

  std::uint32_t acquire(RealTime at);  // claims a slot and pushes its key
  void push(RealTime at, std::uint32_t slot);
  void release(std::uint32_t slot);    // frees it; its keys go stale
  bool pending(std::uint32_t slot, std::uint32_t generation) const;
  void cancel(std::uint32_t slot, std::uint32_t generation);
  void drop_stale() const;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  mutable std::priority_queue<Key, std::vector<Key>, Later> heap_;
  std::uint32_t firing_ = kNoSlot;  // the timer whose callback is running
  RealTime now_ = RealTime::zero();
  std::uint64_t next_seq_ = 0;
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, generation_);
}

inline bool EventHandle::active() const {
  return queue_ != nullptr && queue_->pending(slot_, generation_);
}

}  // namespace cht::sim
