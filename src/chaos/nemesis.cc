#include "chaos/nemesis.h"

#include <algorithm>
#include <sstream>

#include "common/assert.h"

namespace cht::chaos {

namespace {

// Fault shapes shared by every profile, in deltas of the run (nemesis.h).
// Partitions, isolations and duplication bursts hold for 10..60 delta.
constexpr int kHoldMinDeltas = 10;
constexpr int kHoldMaxDeltas = 60;
constexpr int kLinkDelayMaxDeltas = 8;
constexpr int kGstShiftMaxDeltas = 40;
// A bounced process stays powered off for 10..40 delta.
constexpr int kDowntimeMinDeltas = 10;
constexpr int kDowntimeMaxDeltas = 40;
// Kills one crash-loop action strings together on its victim. Its cycles
// run much faster than a bounce: the victim is killed again before any
// stack's recovery round (lease handshake, VR recovery quorum, Raft
// election) can finish, with downtimes of delta/2..2 delta and up-times of
// delta/4..delta.
constexpr int kLoopCyclesMin = 2;
constexpr int kLoopCyclesMax = 4;

// A duration drawn uniformly from [lo, hi].
Duration uniform(Rng& rng, Duration lo, Duration hi) {
  return Duration::micros(rng.next_in(lo.to_micros(), hi.to_micros()));
}

}  // namespace

NemesisProfile nemesis_profile(const std::string& name, Duration delta,
                               Duration epsilon) {
  NemesisProfile p;
  p.name = name;
  p.tick_min = 15 * delta;
  p.tick_max = 40 * delta;
  if (name == "calm") {
    return p;
  }
  if (name == "rolling-partitions") {
    p.w_partition = 1.0;
    p.w_isolate = 0.35;
    p.w_link_delay = 0.4;
    p.w_gst_shift = 0.15;
    p.w_duplicate = 0.15;
    return p;
  }
  if (name == "leader-hunter") {
    p.target_leader = true;
    p.w_crash = 0.25;
    p.w_isolate = 0.5;
    p.w_partition = 0.5;
    p.w_link_delay = 0.2;
    p.max_crashes = 2;
    return p;
  }
  if (name == "power-cycle") {
    // Rolling restarts: processes bounce (crash + powered-off downtime +
    // recovery from stable storage) continuously, never more than a minority
    // down at once but with no bound on total cycles, plus enough partition
    // pressure that recovering replicas rejoin under message loss. This is
    // the profile the durability invariant earns its keep on: every
    // acknowledged write must survive arbitrarily many of these cycles even
    // though each crash tears/loses unsynced storage writes.
    p.w_bounce = 1.0;
    p.w_restart = 0.35;
    p.w_partition = 0.3;
    p.w_link_delay = 0.2;
    p.max_crashes = 2;
    return p;
  }
  if (name == "crash-loop") {
    // The same process is bounced repeatedly with downtimes and up-times
    // shorter than recovery completes: each incarnation dies mid-replay,
    // with its group-commit window half-flushed and its in-flight syncs
    // abandoned. This is the profile that earns incarnation-namespaced
    // OperationIds their keep — a slow loop of full power cycles
    // (power-cycle profile) never re-runs recovery over a *partially
    // recovered* predecessor the way this does.
    p.w_crash_loop = 1.0;
    p.w_restart = 0.2;
    p.w_partition = 0.25;
    p.w_link_delay = 0.2;
    p.max_crashes = 2;
    return p;
  }
  if (name == "clock-storm") {
    // Skew up to 5x epsilon: well beyond the synchrony bound, so leases can
    // look valid too long (stale reads) or expired too early (stalls). The
    // RMW sub-history must stay linearizable regardless.
    p.w_clock_skew = 1.0;
    p.w_isolate = 0.25;
    p.w_link_delay = 0.2;
    p.clock_skew_max = 5 * epsilon;
    p.allows_stale_reads = true;
    return p;
  }
  if (name == "degraded-reads") {
    // Pure clock torture aimed at the clock-health guard: faster fault
    // ticks than any other profile and skew up to 8x epsilon, with no
    // partition/isolation noise so every anomaly on the read path traces
    // back to clocks. Reads are still marked stale-tolerant — but with the
    // guard on, the exposure-window accounting only excuses a stale read
    // served inside the bounded window before detecting evidence lands
    // (see invariants.cc).
    p.tick_min = 8 * delta;
    p.tick_max = 20 * delta;
    p.w_clock_skew = 1.0;
    p.w_link_delay = 0.15;
    p.clock_skew_max = 8 * epsilon;
    p.allows_stale_reads = true;
    return p;
  }
  CHT_ASSERT(false, "unknown nemesis profile");
  return p;
}

const std::vector<std::string>& known_profiles() {
  static const std::vector<std::string> kProfiles = {
      "calm", "rolling-partitions", "leader-hunter", "clock-storm",
      "power-cycle", "crash-loop", "degraded-reads"};
  return kProfiles;
}

Nemesis::Nemesis(ClusterAdapter& cluster, NemesisProfile profile,
                 std::uint64_t seed)
    : cluster_(cluster), profile_(std::move(profile)), rng_(seed) {}

void Nemesis::arm(Duration active_window) {
  active_until_ = cluster_.sim().now() + active_window;
  const double total = profile_.w_partition + profile_.w_isolate +
                       profile_.w_crash + profile_.w_link_delay +
                       profile_.w_clock_skew + profile_.w_gst_shift +
                       profile_.w_duplicate + profile_.w_restart +
                       profile_.w_bounce + profile_.w_crash_loop;
  if (total <= 0) return;  // calm: nothing to schedule
  tick_timer_ = cluster_.sim().after(
      uniform(rng_, profile_.tick_min, profile_.tick_max), [this] { tick(); });
}

void Nemesis::tick() {
  if (cluster_.sim().now() >= active_until_) return;
  act();
  tick_timer_ = cluster_.sim().after(
      uniform(rng_, profile_.tick_min, profile_.tick_max), [this] { tick(); });
}

int Nemesis::pick_victim() {
  if (profile_.target_leader) {
    const int leader = cluster_.leader();
    if (leader >= 0) return leader;
  }
  return static_cast<int>(rng_.next_below(
      static_cast<std::uint64_t>(cluster_.n())));
}

void Nemesis::note(const std::string& line) {
  std::ostringstream os;
  os << cluster_.sim().now().to_millis_f() << "ms  " << line;
  log_.push_back(os.str());
}

int Nemesis::down_now() const {
  // A replica still running its recovery protocol counts as down: VR's
  // recovery needs a majority of *normal* replicas to answer, so crashing
  // another process while one is mid-recovery can exceed the protocol's
  // failure assumption (see ClusterAdapter::recovering).
  int down = 0;
  for (int i = 0; i < cluster_.n(); ++i) {
    if (cluster_.crashed(i) || cluster_.recovering(i)) ++down;
  }
  return down;
}

void Nemesis::do_restart(int p) {
  pending_restarts_.erase(p);
  ++restarts_;
  cluster_.restart(p);
  note("restart p" + std::to_string(p));
}

void Nemesis::act() {
  const double weights[] = {profile_.w_partition, profile_.w_isolate,
                            profile_.w_crash,     profile_.w_link_delay,
                            profile_.w_clock_skew, profile_.w_gst_shift,
                            profile_.w_duplicate,  profile_.w_restart,
                            profile_.w_bounce,     profile_.w_crash_loop};
  double total = 0;
  for (double w : weights) total += w;
  double draw = rng_.next_double() * total;
  int action = 0;
  while (action < 9 && draw >= weights[action]) {
    draw -= weights[action];
    ++action;
  }

  sim::Simulation& sim = cluster_.sim();
  const Duration delta = sim.network().config().delta;
  const int n = cluster_.n();
  const int a = pick_victim();
  int b = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(n - 1)));
  if (b >= a) ++b;

  switch (action) {
    case 0: {  // directed partition with heal
      const bool both_ways = rng_.next_bool(0.5);
      const Duration hold =
          uniform(rng_, kHoldMinDeltas * delta, kHoldMaxDeltas * delta);
      cut_links_.insert({a, b});
      sim.network().set_link_down(ProcessId(a), ProcessId(b), true);
      if (both_ways) {
        cut_links_.insert({b, a});
        sim.network().set_link_down(ProcessId(b), ProcessId(a), true);
      }
      note("partition p" + std::to_string(a) +
           (both_ways ? " <-> p" : " -> p") + std::to_string(b) + " for " +
           std::to_string(hold.to_millis_f()) + "ms");
      sim.after(hold, [this, a, b, both_ways] {
        if (cut_links_.erase({a, b}) > 0) {
          cluster_.sim().network().set_link_down(ProcessId(a), ProcessId(b),
                                                 false);
        }
        if (both_ways && cut_links_.erase({b, a}) > 0) {
          cluster_.sim().network().set_link_down(ProcessId(b), ProcessId(a),
                                                 false);
        }
        note("heal p" + std::to_string(a) + " / p" + std::to_string(b));
      });
      break;
    }
    case 1: {  // full isolation with heal
      if (isolated_.contains(a)) break;
      const Duration hold =
          uniform(rng_, kHoldMinDeltas * delta, kHoldMaxDeltas * delta);
      isolated_.insert(a);
      sim.network().set_process_isolated(ProcessId(a), true, n);
      note("isolate p" + std::to_string(a) + " for " +
           std::to_string(hold.to_millis_f()) + "ms");
      sim.after(hold, [this, a, n] {
        if (isolated_.erase(a) > 0) {
          cluster_.sim().network().set_process_isolated(ProcessId(a), false, n);
          note("deisolate p" + std::to_string(a));
        }
      });
      break;
    }
    case 2: {  // crash, bounded to a minority down at once
      const int budget = std::min(profile_.max_crashes, (n - 1) / 2);
      if (down_now() >= budget || cluster_.crashed(a)) break;
      ++crashes_;
      sim.crash(ProcessId(a));
      note("crash p" + std::to_string(a));
      break;
    }
    case 3: {  // one-shot link delay
      const Duration extra =
          uniform(rng_, Duration::zero(), kLinkDelayMaxDeltas * delta);
      sim.network().add_link_delay(ProcessId(a), ProcessId(b), extra);
      note("delay p" + std::to_string(a) + " -> p" + std::to_string(b) +
           " by " + std::to_string(extra.to_millis_f()) + "ms");
      break;
    }
    case 4: {  // clock-offset bump
      const std::int64_t bound = profile_.clock_skew_max.to_micros();
      if (bound == 0) break;
      const Duration offset = Duration::micros(rng_.next_in(-bound, bound));
      skewed_.insert(a);
      skew_events_.push_back({sim.now(), a, offset});
      sim.set_clock_offset(ProcessId(a), offset);
      note("clock p" + std::to_string(a) + " offset " +
           std::to_string(offset.to_millis_f()) + "ms");
      break;
    }
    case 5: {  // GST shift: re-open the asynchronous period
      const Duration shift =
          uniform(rng_, Duration::zero(), kGstShiftMaxDeltas * delta);
      const RealTime new_gst = sim.now() + shift;
      if (new_gst > sim.network().config().gst) {
        sim.network().set_gst(new_gst);
        note("gst shift to " + std::to_string(new_gst.to_millis_f()) + "ms");
      }
      break;
    }
    case 6: {  // duplication burst (bites while the network is pre-GST)
      if (duplication_on_) break;
      duplication_on_ = true;
      sim.network().set_pre_gst_duplicate_probability(0.3);
      const Duration hold =
          uniform(rng_, kHoldMinDeltas * delta, kHoldMaxDeltas * delta);
      note("duplication on for " + std::to_string(hold.to_millis_f()) + "ms");
      sim.after(hold, [this] {
        if (duplication_on_) {
          duplication_on_ = false;
          cluster_.sim().network().set_pre_gst_duplicate_probability(0.0);
          note("duplication off");
        }
      });
      break;
    }
    case 7: {  // restart: power a crashed process back up early
      int count = 0;
      for (int i = 0; i < n; ++i) {
        if (cluster_.crashed(i)) ++count;
      }
      if (count == 0) break;
      // Deterministic choice among the currently-down (skip bounce victims
      // only if everything down is bounce-pending — an early power-on then
      // just preempts the scheduled one, which no-ops at fire time).
      int pick = static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(count)));
      for (int i = 0; i < n; ++i) {
        if (!cluster_.crashed(i)) continue;
        if (pick-- == 0) {
          do_restart(i);
          break;
        }
      }
      break;
    }
    case 8: {  // bounce: crash now, restart after a drawn powered-off spell
      const int budget = std::min(profile_.max_crashes, (n - 1) / 2);
      if (down_now() >= budget || cluster_.crashed(a)) break;
      const Duration downtime =
          uniform(rng_, kDowntimeMinDeltas * delta, kDowntimeMaxDeltas * delta);
      ++crashes_;
      pending_restarts_.insert(a);
      sim.crash(ProcessId(a));
      note("bounce p" + std::to_string(a) + " down for " +
           std::to_string(downtime.to_millis_f()) + "ms");
      sim.after(downtime, [this, a] {
        if (pending_restarts_.contains(a) && cluster_.crashed(a)) {
          do_restart(a);
        }
      });
      break;
    }
    default: {  // crash-loop: bounce the same victim repeatedly, faster than
                // its recovery round, so successive incarnations re-run
                // recovery over a half-recovered predecessor's storage.
      const int budget = std::min(profile_.max_crashes, (n - 1) / 2);
      if (down_now() >= budget || cluster_.crashed(a)) break;
      const int cycles =
          kLoopCyclesMin + static_cast<int>(rng_.next_in(
                               0, kLoopCyclesMax - kLoopCyclesMin));
      ++crashes_;
      pending_restarts_.insert(a);
      sim.crash(ProcessId(a));
      note("crash-loop p" + std::to_string(a) + " cycles=" +
           std::to_string(cycles));
      schedule_loop_restart(a, cycles);
      break;
    }
  }
}

void Nemesis::schedule_loop_restart(int p, int remaining) {
  const Duration delta = cluster_.sim().network().config().delta;
  const Duration downtime = uniform(rng_, delta / 2, 2 * delta);
  cluster_.sim().after(downtime, [this, p, remaining, delta] {
    if (!pending_restarts_.contains(p) || !cluster_.crashed(p)) return;
    do_restart(p);
    if (remaining <= 1) return;
    const Duration uptime = uniform(rng_, delta / 4, delta);
    cluster_.sim().after(uptime, [this, p, remaining] {
      // The window may have closed or another fault consumed the crash
      // budget while we were up: end the loop rather than exceed either.
      if (cluster_.sim().now() >= active_until_) return;
      if (cluster_.crashed(p)) return;
      const int budget =
          std::min(profile_.max_crashes, (cluster_.n() - 1) / 2);
      if (down_now() >= budget) return;
      ++crashes_;
      pending_restarts_.insert(p);
      cluster_.sim().crash(ProcessId(p));
      note("crash-loop re-crash p" + std::to_string(p));
      schedule_loop_restart(p, remaining - 1);
    });
  });
}

void Nemesis::stop_and_heal() {
  active_until_ = cluster_.sim().now();
  tick_timer_.cancel();
  sim::Simulation& sim = cluster_.sim();
  for (const auto& [from, to] : cut_links_) {
    sim.network().set_link_down(ProcessId(from), ProcessId(to), false);
  }
  cut_links_.clear();
  for (int p : isolated_) {
    sim.network().set_process_isolated(ProcessId(p), false, cluster_.n());
  }
  isolated_.clear();
  for (int p : skewed_) {
    // Zero is within epsilon/2 of real time, hence within epsilon of every
    // untouched clock; monotonicity clamping absorbs backward moves.
    sim.set_clock_offset(ProcessId(p), Duration::zero());
    // Log each restoration so a repro artifact shows when the schedule
    // stopped holding a clock off-true (the exposure window closes a drain
    // interval after this point). Fingerprints do not hash the schedule
    // log, so these lines are replay-safe.
    note("clock p" + std::to_string(p) + " offset restored to 0ms");
  }
  skewed_.clear();
  if (duplication_on_) {
    duplication_on_ = false;
    sim.network().set_pre_gst_duplicate_probability(0.0);
  }
  if (sim.network().config().gst > sim.now()) {
    sim.network().set_gst(sim.now());
  }
  // Under a power-cycling profile the outage ends here: everything still
  // down comes back up and recovers, so liveness can demand full quiescence.
  // Profiles without restart weight keep the historical crash-stop behavior
  // (and their byte-identical fingerprints).
  if (profile_.w_restart > 0 || profile_.w_bounce > 0 ||
      profile_.w_crash_loop > 0) {
    pending_restarts_.clear();
    for (int i = 0; i < cluster_.n(); ++i) {
      if (cluster_.crashed(i)) do_restart(i);
    }
  }
  note("nemesis stopped; all faults healed");
}

}  // namespace cht::chaos
