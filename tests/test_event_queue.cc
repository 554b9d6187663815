#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/simulation.h"

// Every form of global operator new is counted, so the steady-state tests
// below can assert that scheduling and firing events allocates nothing.
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

namespace cht::sim {
namespace {

RealTime at_us(std::int64_t us) { return RealTime::zero() + Duration::micros(us); }

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(at_us(30), [&] { fired.push_back(3); });
  q.schedule(at_us(10), [&] { fired.push_back(1); });
  q.schedule(at_us(20), [&] { fired.push_back(2); });
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), at_us(30));
}

TEST(EventQueueTest, SameInstantFiresInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(at_us(5), [&fired, i] { fired.push_back(i); });
  }
  while (q.step()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, CancelledEventsAreSkipped) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(at_us(10), [&] { fired = true; });
  EXPECT_TRUE(h.active());
  h.cancel();
  EXPECT_FALSE(h.active());
  while (q.step()) {
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule(q.now() + Duration::micros(1), chain);
  };
  q.schedule(at_us(1), chain);
  while (q.step()) {
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), at_us(5));
}

TEST(EventQueueTest, NextEventTime) {
  EventQueue q;
  EXPECT_EQ(q.next_event_time(), RealTime::max());
  auto h = q.schedule(at_us(42), [] {});
  EXPECT_EQ(q.next_event_time(), at_us(42));
  h.cancel();
  EXPECT_EQ(q.next_event_time(), RealTime::max());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EmptyQueueStepReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step());
}

TEST(EventQueueTest, HandleReadsInactiveOnceFired) {
  EventQueue q;
  EventHandle h = q.schedule(at_us(10), [] {});
  ASSERT_TRUE(h.active());
  ASSERT_TRUE(q.step());
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(EventHandle().active());
}

TEST(EventQueueTest, StaleHandleNeverCancelsTheSlotsNextEvent) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle fired_handle = q.schedule(at_us(1), [&] { fired.push_back(1); });
  ASSERT_TRUE(q.step());
  // The freed slot is reused; the old handle must not reach the new event.
  EventHandle next = q.schedule(at_us(2), [&] { fired.push_back(2); });
  fired_handle.cancel();
  EXPECT_TRUE(next.active());

  EventHandle cancelled = q.schedule(at_us(3), [&] { fired.push_back(3); });
  cancelled.cancel();
  EventHandle reuser = q.schedule(at_us(4), [&] { fired.push_back(4); });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.active());
  EXPECT_TRUE(reuser.active());
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
}

TEST(EventQueueTest, CancellingOwnHandleInsideCallbackDoesNothing) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle self;
  self = q.schedule(at_us(1), [&] {
    EXPECT_FALSE(self.active());
    self.cancel();
    q.schedule(at_us(2), [&] { fired.push_back(2); });
    q.schedule(at_us(3), [&] { fired.push_back(3); });
    self.cancel();
    fired.push_back(1);
  });
  while (q.step()) {
  }
  // A second release of the firing slot would let two events share it.
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, GrowingTheSlabInsideACallbackKeepsOrder) {
  EventQueue q;
  std::vector<std::pair<RealTime, int>> fired;
  q.schedule(at_us(0), [&] {
    // Enough events to reallocate the slab several times over; every time
    // value is shared by ten of them, scheduled in index order.
    for (int i = 0; i < 1000; ++i) {
      const RealTime at = at_us(1 + (i * 37) % 100);
      q.schedule(at, [&fired, &q, i] { fired.emplace_back(q.now(), i); });
    }
  });
  while (q.step()) {
  }
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t k = 1; k < fired.size(); ++k) {
    EXPECT_LT(fired[k - 1], fired[k]) << "(at, seq) order broken at " << k;
  }
}

// --- Steady-state allocation gate ---------------------------------------

struct Tick {
  static constexpr std::string_view kType = "test.tick";
};

// A process whose periodic timer re-arms itself from its own callback.
class Ticker : public Process {
 public:
  int ticks = 0;
  void on_start() override { arm(); }
  void on_message(const Message&) override {}

 private:
  void arm() {
    schedule_after(Duration::millis(1), [this] {
      ++ticks;
      arm();
    });
  }
};

TEST(EventQueueAllocationTest, SelfRearmingTimerAllocatesNothing) {
  Simulation sim(SimulationConfig{});
  sim.add_process(std::make_unique<Ticker>());
  sim.start();
  for (int i = 0; i < 100; ++i) sim.step();  // warm up slab and heap
  const std::size_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) sim.step();
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sim.process_as<Ticker>(ProcessId(0)).ticks, 1100);
}

TEST(EventQueueAllocationTest, DeliveryOfAnExistingEnvelopeAllocatesNothing) {
  EventQueue queue;
  Network network(queue, Rng(1), NetworkConfig{});
  int delivered = 0;
  network.set_deliver_fn([&](const Message&) { ++delivered; });
  const Message envelope = Message::of(ProcessId(0), ProcessId(1),
                                       std::make_shared<const Tick>());
  const auto cycle = [&] {
    network.send(envelope);
    queue.step();
  };
  for (int i = 0; i < 100; ++i) cycle();  // warm up slab, heap and counters
  const std::size_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) cycle();
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(delivered, 1100);
  EXPECT_EQ(network.stats().sent_of(Tick::kType), 1100);
}

}  // namespace
}  // namespace cht::sim
