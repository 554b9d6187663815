#include "leader/omega.h"

#include <algorithm>

namespace cht::leader {

namespace {
// Members a heartbeat can vouch for: one bit each in Heartbeat::heard.
constexpr int kVouchable = 64;
}  // namespace

void OmegaDetector::start() {
  last_heard_.assign(host_.cluster_size(), LocalTime::min());
  last_vouched_.assign(host_.cluster_size(), LocalTime::min());
}

void OmegaDetector::tick() {
  if (leader() != host_.id()) return;
  const LocalTime now = host_.now_local();
  Heartbeat heartbeat;
  for (int i = 0; i < std::min(host_.cluster_size(), kVouchable); ++i) {
    if (i != host_.id().index() && heard_directly(i, now)) {
      heartbeat.heard |= std::uint64_t{1} << i;
    }
  }
  host_.broadcast(heartbeat);
}

bool OmegaDetector::handle_message(const sim::Message& message) {
  const ProcessId from = message.from;
  if (from.valid() && from.index() < host_.cluster_size()) {
    last_heard_[from.index()] = host_.now_local();
  }
  return Inbox::dispatch(message, *this);
}

void OmegaDetector::on(ProcessId, const Heartbeat& heartbeat) {
  const LocalTime now = host_.now_local();
  for (int i = 0; i < std::min(host_.cluster_size(), kVouchable); ++i) {
    if ((heartbeat.heard >> i) & 1) last_vouched_[i] = now;
  }
}

bool OmegaDetector::heard_directly(int i, LocalTime now) const {
  return last_heard_[i] != LocalTime::min() &&
         now - last_heard_[i] <= config_.timeout;
}

ProcessId OmegaDetector::leader() {
  const LocalTime now = host_.now_local();
  for (int i = 0; i < host_.id().index(); ++i) {
    const bool vouched = last_vouched_[i] != LocalTime::min() &&
                         now - last_vouched_[i] <= 2 * config_.timeout;
    if (heard_directly(i, now) || vouched) return ProcessId(i);
  }
  return host_.id();  // self is always alive
}

}  // namespace cht::leader
