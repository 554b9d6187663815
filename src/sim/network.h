// Partially synchronous network.
//
// The paper's model: before an unknown global stabilization time (GST) the
// system is asynchronous -- messages can take arbitrarily long and can be
// lost; after GST every message delay is bounded by a known delta (as
// measured on any local clock; since clocks progress at real-time rate here,
// we bound real-time delay by delta). Messages are never corrupted and no
// spurious messages are generated.
//
// The network also supports fault injection used by robustness experiments:
// dropping all traffic on a directed link ("partitions") and message
// duplication before GST. Per-type delivery/send counters feed the
// message-locality experiments (E1, E5).
//
// send() schedules each copy of a message as a delivery event: the queue
// slot holds the envelope itself, and firing it hands the envelope to the
// callback installed with set_deliver_fn. A network must therefore outlive
// its queue's pending events.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "sim/event_queue.h"
#include "sim/message.h"

namespace cht::sim {

struct NetworkConfig {
  // Real time at which the system stabilizes. Zero means "synchronous from
  // the start". Use RealTime::max() for a permanently asynchronous run.
  RealTime gst = RealTime::zero();

  // Post-GST delays: uniform in [delta_min, delta]. `delta` is the paper's
  // known upper bound on message delay.
  Duration delta_min = Duration::micros(100);
  Duration delta = Duration::millis(10);

  // Pre-GST behaviour.
  Duration pre_gst_delay_min = Duration::micros(100);
  Duration pre_gst_delay_max = Duration::millis(200);
  double pre_gst_loss_probability = 0.05;
  double pre_gst_duplicate_probability = 0.0;

  // A message sent before GST must still respect the post-GST bound once the
  // system has stabilized: we cap its arrival at gst + delta.
  // (This matches "there is a time after which every message delay <= delta";
  // messages in flight at GST arrive within delta after GST.)
};

struct MessageStats {
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
  std::map<std::string, std::int64_t, std::less<>> sent_by_type;

  std::int64_t sent_of(std::string_view type) const {
    auto it = sent_by_type.find(type);
    return it == sent_by_type.end() ? 0 : it->second;
  }
};

class Network {
 public:
  using DeliverFn = std::function<void(const Message&)>;

  Network(EventQueue& queue, Rng rng, NetworkConfig config)
      : queue_(queue), rng_(rng), config_(config) {}
  // Pending deliveries and sent_counters_ point into the network.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Deliveries are handed to this callback (installed by the Simulation).
  void set_deliver_fn(DeliverFn fn) { deliver_ = std::move(fn); }

  void send(Message message);

  // Fault injection: while a directed link is down, messages on it are lost
  // (this models partitions / disconnections; using it after GST knowingly
  // violates the stabilization assumption, which is the point of the
  // robustness experiments).
  void set_link_down(ProcessId from, ProcessId to, bool down);
  void set_process_isolated(ProcessId p, bool isolated, int n);

  // One-shot extra delay on the next message matching (from,to); used by
  // targeted tests. Negative-free: adds on top of the sampled delay.
  void add_link_delay(ProcessId from, ProcessId to, Duration extra);

  const MessageStats& stats() const { return stats_; }

  const NetworkConfig& config() const { return config_; }
  void set_gst(RealTime gst) { config_.gst = gst; }
  // Runtime knob for chaos schedules: adjust the pre-GST duplication rate
  // mid-run (it only bites while now < gst, e.g. after a GST shift).
  void set_pre_gst_duplicate_probability(double p) {
    config_.pre_gst_duplicate_probability = p;
  }

 private:
  friend class EventQueue;
  // Fires a delivery event.
  void deliver(const Message& message);
  std::int64_t& sent_counter(const Message& message);
  Duration sample_delay(RealTime now, bool& lose, bool& duplicate);

  EventQueue& queue_;
  Rng rng_;
  NetworkConfig config_;
  DeliverFn deliver_;
  std::set<std::pair<int, int>> down_links_;
  std::map<std::pair<int, int>, Duration> extra_delay_;
  MessageStats stats_;
  // stats_.sent_by_type's counter for each envelope tag sent so far, so a
  // send finds its counter by pointer comparison instead of by name.
  std::vector<std::pair<const void*, std::int64_t*>> sent_counters_;
};

}  // namespace cht::sim
