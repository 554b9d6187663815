#include "sim/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace cht::sim {
namespace {

struct Fixture {
  EventQueue queue;
  NetworkConfig config;
  std::vector<std::pair<RealTime, Message>> delivered;

  Network make(std::uint64_t seed = 1) {
    return Network(queue, Rng(seed), config);
  }
};

struct Ping {
  static constexpr std::string_view kType = "test.ping";
};
struct Pong {
  static constexpr std::string_view kType = "test.pong";
};

template <class T = Ping>
Message make_msg(int from, int to) {
  return Message::of(ProcessId(from), ProcessId(to),
                     std::make_shared<const T>());
}

TEST(NetworkTest, PostGstDelaysBoundedByDelta) {
  Fixture f;
  f.config.gst = RealTime::zero();
  f.config.delta = Duration::millis(5);
  f.config.delta_min = Duration::micros(100);
  Network network = f.make();
  network.set_deliver_fn([&](const Message& m) {
    f.delivered.emplace_back(f.queue.now(), m);
  });
  for (int i = 0; i < 200; ++i) network.send(make_msg(0, 1));
  RealTime start = f.queue.now();
  while (f.queue.step()) {
  }
  ASSERT_EQ(f.delivered.size(), 200u);
  for (const auto& [at, m] : f.delivered) {
    EXPECT_LE(at - start, Duration::millis(5));
    EXPECT_GE(at - start, Duration::micros(100));
  }
  EXPECT_EQ(network.stats().sent, 200);
  EXPECT_EQ(network.stats().delivered, 200);
  EXPECT_EQ(network.stats().dropped, 0);
}

TEST(NetworkTest, PreGstMessagesCanBeLost) {
  Fixture f;
  f.config.gst = RealTime::max();
  f.config.pre_gst_loss_probability = 0.5;
  f.config.pre_gst_delay_min = Duration::millis(50);
  Network network = f.make();
  int delivered = 0;
  int too_early = 0;
  network.set_deliver_fn([&](const Message&) {
    ++delivered;
    // Permanent asynchrony: every delivery takes a pre-GST delay.
    if (f.queue.now() - RealTime::zero() < f.config.pre_gst_delay_min) {
      ++too_early;
    }
  });
  for (int i = 0; i < 1000; ++i) network.send(make_msg(0, 1));
  while (f.queue.step()) {
  }
  EXPECT_GT(delivered, 300);
  EXPECT_LT(delivered, 700);
  EXPECT_EQ(too_early, 0);
  EXPECT_EQ(network.stats().dropped, 1000 - delivered);
}

TEST(NetworkTest, InFlightMessagesRespectDeltaAfterGst) {
  // A message sent just before GST must arrive within delta after GST.
  Fixture f;
  f.config.gst = RealTime::zero() + Duration::millis(100);
  f.config.pre_gst_delay_max = Duration::seconds(10);  // would overshoot
  f.config.pre_gst_loss_probability = 0.0;
  Network network = f.make();
  RealTime arrival = RealTime::zero();
  network.set_deliver_fn([&](const Message&) { arrival = f.queue.now(); });
  f.queue.schedule(f.config.gst - Duration::millis(1),
                   [&] { network.send(make_msg(0, 1)); });
  while (f.queue.step()) {
  }
  EXPECT_LE(arrival, f.config.gst + f.config.delta);
}

TEST(NetworkTest, DownLinksDropMessages) {
  Fixture f;
  Network network = f.make();
  int delivered = 0;
  network.set_deliver_fn([&](const Message&) { ++delivered; });
  network.set_link_down(ProcessId(0), ProcessId(1), true);
  network.send(make_msg(0, 1));
  network.send(make_msg(1, 0));  // reverse direction unaffected
  while (f.queue.step()) {
  }
  EXPECT_EQ(delivered, 1);
  network.set_link_down(ProcessId(0), ProcessId(1), false);
  network.send(make_msg(0, 1));
  while (f.queue.step()) {
  }
  EXPECT_EQ(delivered, 2);
}

TEST(NetworkTest, IsolationCutsBothDirections) {
  Fixture f;
  Network network = f.make();
  int delivered = 0;
  network.set_deliver_fn([&](const Message&) { ++delivered; });
  network.set_process_isolated(ProcessId(1), true, 3);
  network.send(make_msg(0, 1));
  network.send(make_msg(1, 2));
  network.send(make_msg(0, 2));  // unaffected pair
  while (f.queue.step()) {
  }
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, PerTypeCounters) {
  Fixture f;
  Network network = f.make();
  network.set_deliver_fn([](const Message&) {});
  network.send(make_msg<Ping>(0, 1));
  network.send(make_msg<Ping>(0, 1));
  network.send(make_msg<Pong>(0, 1));
  EXPECT_EQ(network.stats().sent_of(Ping::kType), 2);
  EXPECT_EQ(network.stats().sent_of(Pong::kType), 1);
  EXPECT_EQ(network.stats().sent_of("test.other"), 0);
}

TEST(NetworkTest, DuplicatesShareThePayload) {
  Fixture f;
  f.config.gst = RealTime::zero() + Duration::seconds(100);
  f.config.pre_gst_loss_probability = 0.0;
  f.config.pre_gst_duplicate_probability = 1.0;
  Network network = f.make();
  network.set_deliver_fn([&](const Message& m) {
    f.delivered.emplace_back(f.queue.now(), m);
  });
  const Message sent = make_msg<Pong>(0, 1);
  network.send(sent);
  while (f.queue.step()) {
  }
  ASSERT_EQ(f.delivered.size(), 2u);
  for (const auto& [at, m] : f.delivered) {
    EXPECT_TRUE(m.is<Pong>());
    EXPECT_FALSE(m.is<Ping>());
    EXPECT_EQ(m.type, "test.pong");
    EXPECT_EQ(m.payload.get(), sent.payload.get());
  }
  EXPECT_EQ(f.delivered[1].first - f.delivered[0].first, f.config.delta_min);
}

TEST(NetworkTest, ExtraLinkDelayAppliesOnce) {
  Fixture f;
  f.config.delta = Duration::millis(1);
  f.config.delta_min = Duration::millis(1);
  Network network = f.make();
  std::vector<RealTime> arrivals;
  network.set_deliver_fn([&](const Message&) { arrivals.push_back(f.queue.now()); });
  network.add_link_delay(ProcessId(0), ProcessId(1), Duration::millis(50));
  network.send(make_msg(0, 1));
  network.send(make_msg(0, 1));
  while (f.queue.step()) {
  }
  ASSERT_EQ(arrivals.size(), 2u);
  std::sort(arrivals.begin(), arrivals.end());
  EXPECT_EQ(arrivals[0] - RealTime::zero(), Duration::millis(1));
  EXPECT_EQ(arrivals[1] - RealTime::zero(), Duration::millis(51));
}

}  // namespace
}  // namespace cht::sim
