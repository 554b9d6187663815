// Nemesis: composes fault actions over simulated time, driven only by a
// seed-derived random stream, so a fault schedule is a pure function of the
// RunSpec. Actions cover the full injection surface of the simulator:
//
//   crash            kill a process (bounded: always leaves a majority)
//   partition        directed link cut, healed after a drawn duration
//   isolate          cut a process off entirely, healed later
//   link delay       one-shot extra delay on a directed link
//   clock skew       clock-offset bump, within or beyond epsilon
//   gst shift        push GST into the future (re-opens asynchrony)
//   duplication      raise the pre-GST duplicate probability for a while
//   restart          power a crashed process back up (recovery path runs)
//   bounce           power cycle: crash now, restart after a drawn downtime
//   crash-loop       bounce the *same* process repeatedly, with downtimes
//                    and up-times shorter than recovery completes, so each
//                    incarnation is killed mid-replay (stresses
//                    incarnation-namespaced OperationIds and repeated
//                    recovery over half-synced storage)
//
// Crashes are budgeted by how many processes are down *right now*, so a
// restart refunds the budget: profiles with restart/bounce weight can cycle
// through every process over a run while never exceeding a minority down.
//
// Intensity profiles weight these actions. "leader-hunter" resolves its
// victim at fire time via ClusterAdapter::leader(), so it chases leadership
// wherever it moves. Every action is appended to a human-readable schedule
// log that repro artifacts embed verbatim.
//
// Every profile shapes its faults alike, in deltas of the run (the network's
// post-GST delay bound): partitions, isolations and duplication bursts hold
// for 10-60 delta, a link delay adds up to 8 delta, a GST shift re-opens
// asynchrony for up to 40 delta, a bounced process stays down 10-40 delta,
// and a crash-loop kills its victim 2-4 times with downtimes of delta/2 to
// 2 delta and up-times of delta/4 to delta, shorter than any stack's
// recovery round. Profiles differ in their weights, tick spacing, clock skew
// bound and crash budget.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/adapter.h"
#include "common/rng.h"
#include "common/time.h"

namespace cht::chaos {

struct NemesisProfile {
  std::string name;

  // Time between fault decisions.
  Duration tick_min = Duration::millis(150);
  Duration tick_max = Duration::millis(400);

  // Per-tick action weights (relative; all zero = no faults).
  double w_partition = 0;
  double w_isolate = 0;
  double w_crash = 0;
  double w_link_delay = 0;
  double w_clock_skew = 0;
  double w_gst_shift = 0;
  double w_duplicate = 0;
  double w_restart = 0;
  double w_bounce = 0;
  double w_crash_loop = 0;

  // Clock offsets are drawn uniformly in [-clock_skew_max, clock_skew_max];
  // beyond epsilon this knowingly breaks the paper's synchrony assumption.
  Duration clock_skew_max = Duration::zero();
  // Bound on processes down at once (additionally clamped to a minority of
  // n). With restart/bounce weight this is a concurrency bound, not a total:
  // restarts refund it.
  int max_crashes = 0;
  // Aim faults at whoever leader() currently returns.
  bool target_leader = false;

  // Reads may legitimately return stale values under this profile (clock
  // skew beyond epsilon): the invariant registry then checks the RMW
  // sub-history instead of the full history (paper Section 1 robustness).
  bool allows_stale_reads = false;
};

// Built-in profiles, scaled to the run's delta/epsilon: "calm",
// "rolling-partitions", "leader-hunter", "clock-storm", "power-cycle",
// "crash-loop", "degraded-reads".
NemesisProfile nemesis_profile(const std::string& name, Duration delta,
                               Duration epsilon);

// One clock-offset injection, as recorded by the schedule: when, whom, and
// the absolute offset the victim's clock was bumped to. The exposure-window
// accounting (invariants.cc) uses the earliest event as the instant
// synchrony first broke; benches derive guard detection latency from these
// against ClusterAdapter::guard_transitions_of.
struct SkewEvent {
  RealTime at = RealTime::zero();
  int process = -1;
  Duration offset = Duration::zero();
};

class Nemesis {
 public:
  Nemesis(ClusterAdapter& cluster, NemesisProfile profile, std::uint64_t seed);

  // Schedules fault ticks from now until now + active_window. Call once,
  // before driving the workload.
  void arm(Duration active_window);

  // Ends the chaos: cancels pending ticks, heals all partitions and
  // isolation, restores clock offsets and duplication, and pulls GST back to
  // "stabilized now" if an earlier shift pushed it past the present. Under a
  // profile with restart/bounce weight, every process still down is powered
  // back up ("the outage ends"); otherwise crashed processes stay crashed
  // (crash-stop model), preserving the historical profiles' runs exactly.
  void stop_and_heal();

  const std::vector<std::string>& schedule_log() const { return log_; }
  int crashes() const { return crashes_; }
  int restarts() const { return restarts_; }
  // Every clock-offset bump performed, in injection order (empty under
  // profiles with zero clock_skew_max).
  const std::vector<SkewEvent>& skew_events() const { return skew_events_; }

 private:
  void tick();
  void act();
  int pick_victim();
  void note(const std::string& line);
  // Number of processes down right now (the crash budget's denominator).
  int down_now() const;
  // Powers crashed process p back up and logs it.
  void do_restart(int p);
  // Crash-loop chain step: restart p after a short drawn downtime, and if
  // `remaining` cycles are left, kill it again after a short drawn up-time.
  void schedule_loop_restart(int p, int remaining);

  ClusterAdapter& cluster_;
  NemesisProfile profile_;
  Rng rng_;
  RealTime active_until_ = RealTime::zero();
  sim::EventHandle tick_timer_;

  std::set<std::pair<int, int>> cut_links_;
  std::set<int> isolated_;
  std::set<int> skewed_;
  std::vector<SkewEvent> skew_events_;
  int crashes_ = 0;
  int restarts_ = 0;
  // Processes with a bounce-scheduled restart still pending; membership is
  // checked at fire time so stop_and_heal's revival can't double-restart.
  std::set<int> pending_restarts_;
  bool duplication_on_ = false;
  std::vector<std::string> log_;
};

}  // namespace cht::chaos
