#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cht::sim {
namespace {

// A wire struct whose text rides in the payload.
struct Note {
  static constexpr std::string_view kType = "note";
  std::string text;
};

// A process that logs everything it sees, for observing runtime semantics.
class Probe : public Process {
 public:
  std::vector<std::string> events;
  std::vector<const void*> payloads;
  void on_start() override { events.push_back("start"); }
  void on_message(const Message& message) override {
    events.push_back("msg:" + message.as<Note>().text + ":from" +
                     std::to_string(message.from.index()));
    payloads.push_back(message.payload.get());
  }
  void on_crash() override { events.push_back("crash"); }
};

SimulationConfig quick_config(std::uint64_t seed = 1) {
  SimulationConfig config;
  config.seed = seed;
  config.network.gst = RealTime::zero();
  config.network.delta = Duration::millis(2);
  config.network.delta_min = Duration::micros(100);
  return config;
}

TEST(SimulationTest, StartCallsEveryProcess) {
  Simulation sim(quick_config());
  for (int i = 0; i < 3; ++i) sim.add_process(std::make_unique<Probe>());
  sim.start();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sim.process_as<Probe>(ProcessId(i)).events.front(), "start");
  }
}

TEST(SimulationTest, SendAndBroadcastDeliver) {
  Simulation sim(quick_config());
  for (int i = 0; i < 3; ++i) sim.add_process(std::make_unique<Probe>());
  sim.start();
  sim.process(ProcessId(0)).broadcast(Note{"hello"});
  sim.run_until(RealTime::zero() + Duration::millis(10));
  EXPECT_EQ(sim.process_as<Probe>(ProcessId(1)).events.back(), "msg:hello:from0");
  EXPECT_EQ(sim.process_as<Probe>(ProcessId(2)).events.back(), "msg:hello:from0");
  // Broadcast excludes self, and every peer reads the same payload.
  EXPECT_EQ(sim.process_as<Probe>(ProcessId(0)).events.size(), 1u);
  EXPECT_EQ(sim.process_as<Probe>(ProcessId(1)).payloads,
            sim.process_as<Probe>(ProcessId(2)).payloads);
  EXPECT_EQ(sim.network().stats().sent_of(Note::kType), 2);
}

TEST(SimulationTest, CrashedProcessesReceiveNothingAndSendNothing) {
  Simulation sim(quick_config());
  for (int i = 0; i < 2; ++i) sim.add_process(std::make_unique<Probe>());
  sim.start();
  sim.crash(ProcessId(1));
  EXPECT_EQ(sim.process_as<Probe>(ProcessId(1)).events.back(), "crash");
  sim.process(ProcessId(0)).send(ProcessId(1), Note{"m"});
  sim.process(ProcessId(1)).send(ProcessId(0), Note{"m"});
  sim.run_until(RealTime::zero() + Duration::millis(10));
  EXPECT_EQ(sim.process_as<Probe>(ProcessId(0)).events.size(), 1u);  // start only
  EXPECT_EQ(sim.process_as<Probe>(ProcessId(1)).events.back(), "crash");
}

TEST(SimulationTest, MessagesInFlightAtCrashStillDeliver) {
  Simulation sim(quick_config());
  for (int i = 0; i < 2; ++i) sim.add_process(std::make_unique<Probe>());
  sim.start();
  sim.process(ProcessId(1)).send(ProcessId(0), Note{"last-words"});
  sim.crash(ProcessId(1));
  sim.run_until(RealTime::zero() + Duration::millis(10));
  EXPECT_EQ(sim.process_as<Probe>(ProcessId(0)).events.back(),
            "msg:last-words:from1");
}

TEST(SimulationTest, CrashedProcessTimersDoNotFire) {
  Simulation sim(quick_config());
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  bool fired = false;
  sim.process(ProcessId(0)).schedule_after(Duration::millis(5),
                                           [&] { fired = true; });
  sim.crash(ProcessId(0));
  sim.run_until(RealTime::zero() + Duration::millis(20));
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, ParkedIncarnationTimersNeverFireAfterRestart) {
  Simulation sim(quick_config());
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  bool old_fired = false;
  bool fresh_fired = false;
  const EventHandle parked = sim.process(ProcessId(0)).schedule_after(
      Duration::millis(5), [&] { old_fired = true; });
  sim.crash(ProcessId(0));
  sim.restart(ProcessId(0), std::make_unique<Probe>());
  sim.process(ProcessId(0)).schedule_after(Duration::millis(5),
                                           [&] { fresh_fired = true; });
  sim.run_until(RealTime::zero() + Duration::millis(20));
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(fresh_fired);
  EXPECT_FALSE(parked.active());
}

TEST(SimulationTest, LocalTimersHonorClockOffsets) {
  SimulationConfig config = quick_config();
  config.epsilon = Duration::zero();  // start with identical clocks
  Simulation sim(config);
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  sim.set_clock_offset(ProcessId(0), Duration::millis(-3));  // clock is slow
  RealTime fired_at = RealTime::zero();
  const LocalTime target = LocalTime::zero() + Duration::millis(10);
  sim.process(ProcessId(0)).schedule_at_local(target, [&] {
    fired_at = sim.now();
  });
  sim.run_until(RealTime::zero() + Duration::seconds(1));
  // Clock reads real-3ms, so it reaches l=10ms at r=13ms.
  EXPECT_EQ(fired_at, RealTime::zero() + Duration::millis(13));
}

TEST(SimulationTest, LocalTimersRearmAfterDesync) {
  SimulationConfig config = quick_config();
  config.epsilon = Duration::zero();
  Simulation sim(config);
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  RealTime fired_at = RealTime::zero();
  sim.process(ProcessId(0)).schedule_at_local(
      LocalTime::zero() + Duration::millis(10),
      [&] { fired_at = sim.now(); });
  // Before the timer fires, slow the clock down by 5ms.
  sim.at(RealTime::zero() + Duration::millis(5),
         [&] { sim.set_clock_offset(ProcessId(0), Duration::millis(-5)); });
  sim.run_until(RealTime::zero() + Duration::seconds(1));
  EXPECT_EQ(fired_at, RealTime::zero() + Duration::millis(15));
}

TEST(SimulationTest, LocalTimerHandleCancelsAfterRearm) {
  SimulationConfig config = quick_config();
  config.epsilon = Duration::zero();
  Simulation sim(config);
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  bool fired = false;
  EventHandle handle = sim.process(ProcessId(0)).schedule_at_local(
      LocalTime::zero() + Duration::millis(10), [&] { fired = true; });
  // Slowing the clock by 5 ms makes the timer re-arm at 10 ms for 15 ms;
  // the caller's handle must still cancel it after that.
  sim.at(RealTime::zero() + Duration::millis(5),
         [&] { sim.set_clock_offset(ProcessId(0), Duration::millis(-5)); });
  sim.at(RealTime::zero() + Duration::millis(12), [&] {
    EXPECT_TRUE(handle.active());
    handle.cancel();
  });
  sim.run_until(RealTime::zero() + Duration::seconds(1));
  EXPECT_FALSE(fired);
  EXPECT_FALSE(handle.active());
}

TEST(SimulationTest, DeterministicBySeed) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(quick_config(seed));
    for (int i = 0; i < 3; ++i) sim.add_process(std::make_unique<Probe>());
    sim.start();
    for (int round = 0; round < 20; ++round) {
      sim.process(ProcessId(round % 3))
          .broadcast(Note{"r" + std::to_string(round)});
      sim.run_until(sim.now() + Duration::millis(1));
    }
    sim.run_until(sim.now() + Duration::millis(50));
    std::vector<std::string> all;
    for (int i = 0; i < 3; ++i) {
      const auto& events = sim.process_as<Probe>(ProcessId(i)).events;
      all.insert(all.end(), events.begin(), events.end());
    }
    return all;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(SimulationTest, RunUntilPredicate) {
  Simulation sim(quick_config());
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim.after(Duration::millis(1), tick);
  };
  sim.after(Duration::millis(1), tick);
  const bool reached = sim.run_until([&] { return count >= 5; },
                                     RealTime::zero() + Duration::seconds(1));
  EXPECT_TRUE(reached);
  EXPECT_EQ(count, 5);
  const bool unreachable = sim.run_until([&] { return count >= 1'000'000; },
                                         RealTime::zero() + Duration::millis(20));
  EXPECT_FALSE(unreachable);
}

TEST(SimulationTest, ClockOffsetsWithinEpsilon) {
  SimulationConfig config = quick_config(99);
  config.epsilon = Duration::millis(4);
  Simulation sim(config);
  for (int i = 0; i < 10; ++i) sim.add_process(std::make_unique<Probe>());
  sim.start();
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      const Duration skew =
          sim.clock(ProcessId(i)).offset() - sim.clock(ProcessId(j)).offset();
      EXPECT_LE(skew, config.epsilon);
      EXPECT_GE(skew, Duration::zero() - config.epsilon);
    }
  }
}

TEST(SimulationTest, SyncStorageZeroLatencyRunsContinuationInline) {
  Simulation sim(quick_config());
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  Process& p = sim.process(ProcessId(0));
  bool ran = false;
  p.sync_storage([&] { ran = true; });
  EXPECT_TRUE(ran) << "zero-latency sync must not schedule an event";
  EXPECT_EQ(sim.storage(ProcessId(0)).fsyncs(), 1);
}

TEST(SimulationTest, SyncStorageNonzeroLatencyDelaysContinuation) {
  SimulationConfig config = quick_config();
  config.storage.sync_latency = Duration::millis(4);
  Simulation sim(config);
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  Process& p = sim.process(ProcessId(0));
  const Duration lat = sim.storage(ProcessId(0)).effective_sync_latency();
  RealTime done = RealTime::min();
  p.storage().write("k", "v");
  p.sync_storage([&] { done = sim.now(); });
  // Durable at call time; the continuation waits out the latency.
  EXPECT_FALSE(p.storage().dirty());
  EXPECT_EQ(done, RealTime::min());
  sim.run_until(RealTime::zero() + Duration::seconds(1));
  EXPECT_EQ(done, RealTime::zero() + lat);
}

TEST(SimulationTest, RequestSyncCoalescesAWindowIntoOneSync) {
  SimulationConfig config = quick_config();
  config.storage.sync_latency = Duration::millis(4);
  Simulation sim(config);
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  Process& p = sim.process(ProcessId(0));
  const Duration lat = sim.storage(ProcessId(0)).effective_sync_latency();
  std::vector<std::pair<int, RealTime>> acks;
  // First request opens a window; the two issued while its sync is in
  // flight share one following sync and ack back-to-back as one burst.
  p.request_sync([&] { acks.emplace_back(0, sim.now()); });
  p.schedule_after(Duration::millis(1), [&] {
    p.request_sync([&] { acks.emplace_back(1, sim.now()); });
    p.request_sync([&] { acks.emplace_back(2, sim.now()); });
  });
  sim.run_until(RealTime::zero() + Duration::seconds(1));
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0].second, RealTime::zero() + lat);
  EXPECT_EQ(acks[1].second, acks[2].second) << "one burst, one completion";
  EXPECT_EQ(acks[1].second, RealTime::zero() + lat + lat);
  // 3 requests, but only 2 fsyncs: the window coalesced the last two.
  EXPECT_EQ(sim.storage(ProcessId(0)).fsyncs(), 2);
}

TEST(SimulationTest, RequestSyncWithoutGroupCommitSyncsEveryRequest) {
  SimulationConfig config = quick_config();
  config.storage.sync_latency = Duration::millis(4);
  config.storage.group_commit = false;
  Simulation sim(config);
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  Process& p = sim.process(ProcessId(0));
  const Duration lat = sim.storage(ProcessId(0)).effective_sync_latency();
  std::vector<RealTime> acks;
  p.request_sync([&] { acks.push_back(sim.now()); });
  p.request_sync([&] { acks.push_back(sim.now()); });
  p.request_sync([&] { acks.push_back(sim.now()); });
  sim.run_until(RealTime::zero() + Duration::seconds(1));
  ASSERT_EQ(acks.size(), 3u);
  // Naive discipline: three syncs queue serially at the device.
  EXPECT_EQ(acks[0], RealTime::zero() + lat);
  EXPECT_EQ(acks[1], RealTime::zero() + lat + lat);
  EXPECT_EQ(acks[2], RealTime::zero() + lat + lat + lat);
  EXPECT_EQ(sim.storage(ProcessId(0)).fsyncs(), 3);
}

TEST(SimulationTest, PendingSyncContinuationsDieWithTheIncarnation) {
  SimulationConfig config = quick_config();
  config.storage.sync_latency = Duration::millis(4);
  Simulation sim(config);
  sim.add_process(std::make_unique<Probe>());
  sim.start();
  bool ran = false;
  sim.process(ProcessId(0)).request_sync([&] { ran = true; });
  sim.crash(ProcessId(0));
  sim.run_until(RealTime::zero() + Duration::seconds(1));
  EXPECT_FALSE(ran) << "a crashed incarnation's ack burst must never fire";
}

}  // namespace
}  // namespace cht::sim
