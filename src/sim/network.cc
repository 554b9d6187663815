#include "sim/network.h"

#include <algorithm>

#include "common/assert.h"

namespace cht::sim {

Duration Network::sample_delay(RealTime now, bool& lose, bool& duplicate) {
  lose = false;
  duplicate = false;
  if (now >= config_.gst) {
    return Duration::micros(rng_.next_in(config_.delta_min.to_micros(),
                                         config_.delta.to_micros()));
  }
  if (rng_.next_bool(config_.pre_gst_loss_probability)) lose = true;
  if (rng_.next_bool(config_.pre_gst_duplicate_probability)) duplicate = true;
  return Duration::micros(rng_.next_in(config_.pre_gst_delay_min.to_micros(),
                                       config_.pre_gst_delay_max.to_micros()));
}

std::int64_t& Network::sent_counter(const Message& message) {
  for (const auto& [tag, counter] : sent_counters_) {
    if (tag == message.tag) return *counter;
  }
  std::int64_t& counter =
      stats_.sent_by_type.try_emplace(std::string(message.type)).first->second;
  sent_counters_.emplace_back(message.tag, &counter);
  return counter;
}

void Network::send(Message message) {
  const RealTime now = queue_.now();
  message.sent_at = now;
  ++stats_.sent;
  ++sent_counter(message);

  if (down_links_.contains({message.from.index(), message.to.index()})) {
    ++stats_.dropped;
    return;
  }

  bool lose = false;
  bool duplicate = false;
  Duration delay = sample_delay(now, lose, duplicate);
  if (auto it = extra_delay_.find({message.from.index(), message.to.index()});
      it != extra_delay_.end()) {
    delay = delay + it->second;
    extra_delay_.erase(it);
  }
  if (lose) {
    ++stats_.dropped;
    return;
  }

  RealTime arrival = now + delay;
  // In-flight messages obey the delta bound once the system stabilizes.
  // (Written as arrival - delta so a permanently asynchronous run, with gst
  // at RealTime::max(), never overflows.)
  if (now < config_.gst && arrival - config_.delta > config_.gst) {
    arrival = config_.gst + Duration::micros(rng_.next_in(
                                config_.delta_min.to_micros(),
                                config_.delta.to_micros()));
    arrival = std::max(arrival, now + config_.delta_min);
  }

  if (duplicate) {
    queue_.schedule_delivery(arrival, *this, message);
    arrival = arrival + config_.delta_min;  // the duplicate arrives later
  }
  queue_.schedule_delivery(arrival, *this, std::move(message));
}

void Network::deliver(const Message& message) {
  CHT_ASSERT(deliver_ != nullptr, "network has no delivery callback");
  ++stats_.delivered;
  deliver_(message);
}

void Network::set_link_down(ProcessId from, ProcessId to, bool down) {
  if (down) {
    down_links_.insert({from.index(), to.index()});
  } else {
    down_links_.erase({from.index(), to.index()});
  }
}

void Network::set_process_isolated(ProcessId p, bool isolated, int n) {
  for (int i = 0; i < n; ++i) {
    if (i == p.index()) continue;
    set_link_down(p, ProcessId(i), isolated);
    set_link_down(ProcessId(i), p, isolated);
  }
}

void Network::add_link_delay(ProcessId from, ProcessId to, Duration extra) {
  extra_delay_[{from.index(), to.index()}] = extra;
}

}  // namespace cht::sim
