// Omega failure detector (the `leader()` procedure of Section 2).
//
// Guarantee: there is a nonfaulty process l and a time after which every
// call to leader() returns l. We implement the standard heartbeat scheme:
// every process broadcasts heartbeats; leader() returns the smallest-id
// process whose heartbeat was seen recently (self counts as always alive).
// Before GST this can bounce arbitrarily (heartbeats are delayed/lost);
// after GST it converges to the smallest-id correct process, satisfying
// Omega. The timeout must exceed heartbeat_interval + delta + epsilon.
//
// This is a *component*: it is hosted by a sim::Process, sends its own
// message type (Heartbeat, "omega.hb") and owns its timers. The host
// offers every delivery to handle_message() before its own inbox.
#pragma once

#include <string_view>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/process.h"

namespace cht::leader {

// "I am alive": the envelope's sender is the whole message.
struct Heartbeat {
  static constexpr std::string_view kType = "omega.hb";
};

struct OmegaConfig {
  Duration heartbeat_interval = Duration::millis(5);
  Duration timeout = Duration::millis(25);
};

class OmegaDetector {
 public:
  OmegaDetector(sim::Process& host, OmegaConfig config)
      : host_(host), config_(config) {}

  void start();

  // The current leader belief. Never returns an invalid id.
  ProcessId leader();

  using Inbox = sim::Inbox<Heartbeat>;
  // Returns true iff the message belonged to this component.
  bool handle_message(const sim::Message& message) {
    return Inbox::dispatch(message, *this);
  }

 private:
  friend Inbox;
  void on(ProcessId from, const Heartbeat& heartbeat);
  void send_heartbeat();

  sim::Process& host_;
  OmegaConfig config_;
  std::vector<LocalTime> last_seen_;  // by process index, on host clock
};

}  // namespace cht::leader
