#include "leader/enhanced_leader.h"

#include <algorithm>
#include <string>

#include "sim/storage.h"

namespace cht::leader {

namespace {
constexpr const char* kCounterKey = "els.counter";
// Smallest representable local-time advance — "strictly after" an instant
// on a clock that ticks in whole microseconds.
constexpr Duration kTickAfter = Duration::micros(1);
}  // namespace

void EnhancedLeaderService::persist_counter() {
  host_.storage().write(kCounterKey, std::to_string(change_counter_));
}

void EnhancedLeaderService::recover() {
  if (const auto stored = host_.storage().read(kCounterKey)) {
    change_counter_ = std::stoll(*stored);
  }
  // Every pre-crash grant ended at most support_duration after the local
  // time of the crash, which is at most the local time now. Starting all new
  // grants strictly after now + support_duration keeps this process's
  // supports for distinct leaders disjoint across the restart.
  min_grant_start_ =
      host_.now_local() + config_.support_duration + kTickAfter;
  last_grant_end_ = LocalTime::min();
}

void EnhancedLeaderService::tick() {
  const ProcessId current = leader_fn_();
  const LocalTime now = host_.now_local();

  bool counter_changed = false;
  if (current != supported_) {
    // Observed a leader change: bump the counter. Grants to the new leader
    // must start strictly after every interval we granted to the previous
    // one, so our supports for distinct leaders are disjoint (this is what
    // makes EL1 hold via majority intersection). Grants to the *same* leader
    // may freely overlap each other.
    ++change_counter_;
    persist_counter();
    counter_changed = true;
    supported_ = current;
    if (last_grant_end_ != LocalTime::min()) {
      min_grant_start_ = last_grant_end_ + kTickAfter;
    }
  }
  const LocalTime start = std::max(now, min_grant_start_);
  const LocalTime end = std::max(start, now + config_.support_duration);
  const SupportGrant grant{change_counter_, start, end};
  last_grant_end_ = std::max(last_grant_end_, end);

  const ProcessId target = supported_;
  if (counter_changed) {
    // No grant may carry a counter value that could be forgotten: the first
    // grant after a bump leaves only once the covering sync completes
    // (coalescing with whatever else is pending in the group-commit window).
    host_.request_sync([this, target, grant] { deliver_grant(target, grant); });
  } else {
    // Renewals reuse an already-durable counter and need no sync.
    deliver_grant(target, grant);
  }
}

void EnhancedLeaderService::deliver_grant(ProcessId target,
                                          const SupportGrant& grant) {
  if (target == host_.id()) {
    on(host_.id(), grant);  // self-support needs no message
  } else {
    host_.send(target, grant);
  }
}

void EnhancedLeaderService::on(ProcessId from, const SupportGrant& grant) {
  SupporterRecord& record = supports_[from.index()];
  std::vector<Interval>& intervals = record[grant.counter];
  // Merge with the previous interval when overlapping or adjacent (the
  // common case: periodic renewal extends the current interval).
  if (!intervals.empty() && grant.start <= intervals.back().end &&
      grant.end >= intervals.back().start) {
    intervals.back().start = std::min(intervals.back().start, grant.start);
    intervals.back().end = std::max(intervals.back().end, grant.end);
  } else {
    intervals.push_back(Interval{grant.start, grant.end});
  }
  prune(record);
}

void EnhancedLeaderService::prune(SupporterRecord& record) {
  const LocalTime horizon = host_.now_local() - config_.history_horizon;
  for (auto it = record.begin(); it != record.end();) {
    auto& intervals = it->second;
    std::erase_if(intervals, [&](const Interval& iv) {
      return iv.end < horizon;
    });
    it = intervals.empty() ? record.erase(it) : std::next(it);
  }
}

bool EnhancedLeaderService::covers(const SupporterRecord& record, LocalTime t1,
                                   LocalTime t2) {
  for (const auto& [counter, intervals] : record) {
    const bool covers_t1 = std::any_of(
        intervals.begin(), intervals.end(),
        [&](const Interval& iv) { return iv.covers(t1); });
    if (!covers_t1) continue;
    const bool covers_t2 = std::any_of(
        intervals.begin(), intervals.end(),
        [&](const Interval& iv) { return iv.covers(t2); });
    if (covers_t2) return true;
  }
  return false;
}

bool EnhancedLeaderService::am_leader(LocalTime t1, LocalTime t2) {
  if (t1 > t2) return false;
  int supporters = 0;
  for (auto it = supports_.begin(); it != supports_.end();) {
    // Lazy horizon pruning: a supporter that went quiet still ages out.
    prune(it->second);
    if (it->second.empty()) {
      it = supports_.erase(it);
      continue;
    }
    if (covers(it->second, t1, t2)) ++supporters;
    ++it;
  }
  return supporters > host_.cluster_size() / 2;
}

}  // namespace cht::leader
