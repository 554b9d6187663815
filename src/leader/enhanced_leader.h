// Enhanced leader service (paper Section 2 / Appendix B reconstruction).
//
// Transforms any Omega-style leader() black box into a service providing
// AmLeader(t1, t2) with:
//
//  (EL1) If AmLeader(t1,t2) and AmLeader(t1',t2') by *distinct* processes
//        both return true, the intervals [t1,t2] and [t1',t2'] are disjoint
//        (no two processes are leaders at the same local time).
//  (EL2) Eventually some correct process l is permanently the leader: there
//        is a local time t* such that for all t2 >= t1 >= t*,
//        AmLeader(t1,t2) returns true at l (when called at local time
//        >= t2) and false at every other process.
//
// Mechanism (from the paper's prose): each process q periodically polls
// leader() and sends the believed leader a *support* message containing an
// interval of local time during which q supports it, plus a counter c of how
// many times q has observed the leader change. The key rule making EL1 hold
// is that q's support intervals for different leaders never overlap: when q
// switches leaders, the new support interval starts strictly after the end
// of the last interval q granted to the previous leader.
//
// AmLeader(t1,t2) at p: true iff a strict majority of processes q (possibly
// including p itself) have sent p support such that, for a single counter
// value c_q, one recorded interval covers t1 and one covers t2. The shared
// counter certifies that q supported p continuously between the two covers
// (q increments c on every observed change, so an unchanged c means q never
// supported anyone else in between).
//
// Like the Omega detector, this component owns no timer: the host calls
// tick() once per interval (the poll-and-renew step) and offers every
// delivery to handle_message().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/process.h"

namespace cht::leader {

struct EnhancedLeaderConfig {
  // Length of each granted support interval. Must exceed 2 x the host's
  // tick interval + delta so that a stable leader's support never lapses.
  Duration support_duration = Duration::millis(40);
  // Recorded support intervals ending further than this before `now` are
  // pruned (they can no longer cover any queried time of interest).
  Duration history_horizon = Duration::seconds(10);
};

// The support message: `counter` and one interval of local time.
struct SupportGrant {
  static constexpr std::string_view kType = "els.support";
  std::int64_t counter = 0;
  LocalTime start;
  LocalTime end;
};

class EnhancedLeaderService {
 public:
  EnhancedLeaderService(sim::Process& host,
                        std::function<ProcessId()> leader_fn,
                        EnhancedLeaderConfig config)
      : host_(host), leader_fn_(std::move(leader_fn)), config_(config) {}

  // One interval's work: polls leader() and renews this process's support
  // (bumping the change counter if the leader changed).
  void tick();

  // Restores the granting-side invariants from stable storage after a crash
  // and restart, before the first tick(). The change counter is persisted
  // (synced) before any grant uses it, so resuming from the stored value
  // guarantees fresh counters; the first post-restart grant is additionally
  // pushed past every interval the previous incarnation could have granted
  // (crash-local-time + support_duration), keeping EL1's disjointness intact
  // even though the old grant ends were lost with the crash.
  void recover();

  // True iff this process has been the leader continuously at all local
  // times in [t1, t2] (as certified by a majority of supporters).
  bool am_leader(LocalTime t1, LocalTime t2);

  using Inbox = sim::Inbox<SupportGrant>;
  // Returns true iff the message belonged to this component.
  bool handle_message(const sim::Message& message) {
    return Inbox::dispatch(message, *this);
  }

 private:
  struct Interval {
    LocalTime start;
    LocalTime end;
    bool covers(LocalTime t) const { return start <= t && t <= end; }
  };
  // Supports received from one process, keyed by counter.
  using SupporterRecord = std::map<std::int64_t, std::vector<Interval>>;

  void persist_counter();
  void deliver_grant(ProcessId target, const SupportGrant& grant);
  // Records support received from `from` (the only inbox handler).
  friend Inbox;
  void on(ProcessId from, const SupportGrant& grant);
  void prune(SupporterRecord& record);
  static bool covers(const SupporterRecord& record, LocalTime t1, LocalTime t2);

  sim::Process& host_;
  std::function<ProcessId()> leader_fn_;
  EnhancedLeaderConfig config_;

  // --- Granting side (this process as supporter) ---
  ProcessId supported_ = ProcessId::invalid();
  std::int64_t change_counter_ = 0;
  LocalTime last_grant_end_ = LocalTime::min();
  LocalTime min_grant_start_ = LocalTime::min();

  // --- Receiving side (this process as candidate leader) ---
  std::map<int, SupporterRecord> supports_;  // by supporter index
};

}  // namespace cht::leader
