#include "leader/omega.h"

namespace cht::leader {

void OmegaDetector::start() {
  last_seen_.assign(host_.cluster_size(), LocalTime::min());
  send_heartbeat();
}

void OmegaDetector::send_heartbeat() {
  host_.broadcast(Heartbeat{});
  host_.schedule_after(config_.heartbeat_interval, [this] { send_heartbeat(); });
}

void OmegaDetector::on(ProcessId from, const Heartbeat&) {
  last_seen_.at(from.index()) = host_.now_local();
}

ProcessId OmegaDetector::leader() {
  const LocalTime now = host_.now_local();
  for (int i = 0; i < host_.cluster_size(); ++i) {
    if (i == host_.id().index()) return host_.id();  // self is always alive
    if (last_seen_[i] != LocalTime::min() &&
        now - last_seen_[i] <= config_.timeout) {
      return ProcessId(i);
    }
  }
  return host_.id();
}

}  // namespace cht::leader
