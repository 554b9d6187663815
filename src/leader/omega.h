// Omega failure detector (the `leader()` procedure of Section 2).
//
// Guarantee: there is a nonfaulty process l and a time after which every
// call to leader() returns l. leader() returns the smallest-id process
// believed alive (self counts as always alive). We implement the
// packet-efficient scheme of Bramas et al.: only a process whose own
// leader() returns itself broadcasts heartbeats, and *every* message
// delivered from a cluster member is evidence that its sender is alive —
// in steady state the followers' ELS support grants keep them alive at the
// leader, so the background is n-1 heartbeats per interval instead of
// n(n-1). A member counts as alive for `timeout` after it was last heard
// from directly; client processes (ids >= cluster_size()) are not
// candidates and their messages prove nothing.
//
// Followers hear each other only through the leader: each heartbeat carries
// the members its sender heard from directly within the timeout (itself
// excluded), and a receiver counts them alive for 2 x timeout. When the
// leader falls silent, its followers therefore move straight to the
// successor instead of briefly supporting themselves, which would cost each
// of them an ELS support switch before the successor's first heartbeat.
// Second-hand evidence is never forwarded, so it cannot keep a crashed
// process alive.
//
// Before GST this can bounce arbitrarily (messages are delayed/lost); after
// GST every evidence of a crashed process expires, the smallest-id correct
// process l finds no smaller one alive and broadcasts, and every correct
// process then hears l every interval, satisfying Omega. The timeout must
// exceed the host's tick interval + delta + epsilon.
//
// This is a *component*: it is hosted by a sim::Process and sends its own
// message type (Heartbeat, "omega.hb"), but owns no timer. The host calls
// tick() once per interval and offers every delivery to handle_message()
// before its own inbox.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/process.h"

namespace cht::leader {

// "I am alive and believe I lead", plus the members the sender heard from
// directly within its timeout: bit i stands for process i (ids 64 and up
// are never vouched for and rely on their own messages).
struct Heartbeat {
  static constexpr std::string_view kType = "omega.hb";
  std::uint64_t heard = 0;
};

struct OmegaConfig {
  Duration timeout = Duration::millis(25);
};

class OmegaDetector {
 public:
  OmegaDetector(sim::Process& host, OmegaConfig config)
      : host_(host), config_(config) {}

  // Sizes the evidence tables; the host calls it from on_start/on_restart,
  // before the first tick().
  void start();

  // One interval's work: heartbeats if leader() is this process.
  void tick();

  // The current leader belief. Never returns an invalid id.
  ProcessId leader();

  using Inbox = sim::Inbox<Heartbeat>;
  // Takes any delivery from a cluster member as evidence that its sender is
  // alive. Returns true iff the message belonged to this component.
  bool handle_message(const sim::Message& message);

 private:
  friend Inbox;
  void on(ProcessId from, const Heartbeat& heartbeat);
  bool heard_directly(int i, LocalTime now) const;

  sim::Process& host_;
  OmegaConfig config_;
  // By process index, on the host clock: when each member was last heard
  // from, and when a heartbeat last named it among its sender's peers.
  std::vector<LocalTime> last_heard_;
  std::vector<LocalTime> last_vouched_;
};

}  // namespace cht::leader
