// Linearizability checker (Wing & Gong search with memoized pruning).
//
// Decides whether a history has a linearization: a total order of its
// operations, consistent with real-time precedence (op A before op B if A's
// response precedes B's invocation), such that running the operations in
// that order through the object model reproduces every completed operation's
// response. Pending operations (no response) may take effect at any point
// after their invocation, or never.
//
// The search linearizes operations in invocation order with a bounded
// "out-of-order window" of concurrently open operations, memoizing visited
// (linearized set, state) configurations as in Lowe's state-caching search.
// It runs over interned ids: each distinct operation, expected response and
// object state (keyed by ObjectState::fingerprint()) becomes a small
// integer, each (state, operation) transition is computed once, and a
// visited configuration is an exact key of words (state id, first
// unlinearized index, linearized bitset) in a flat set. Visiting a state
// allocates nothing once the tables have grown.
//
// The width of the concurrent window, not the history's length, sets the
// cost. Measured with GCC 12 on a shared 4-CPU x86-64 host: 5,000
// sequential counter operations take about 5 ms; bench_perf's check-wide
// histories (1,000 single-key operations from 8 sessions, 8 open at once)
// about 45 us per operation. The search is exponential in the worst case
// (the problem is NP-complete): a 52-op sub-history with about 40
// operations open at once memoizes 652k states in about 0.6 s.
// `max_states` bounds that.
#pragma once

#include <string>
#include <vector>

#include "checker/history.h"
#include "object/object.h"

namespace cht::checker {

struct LinearizabilityResult {
  bool linearizable = false;
  // False iff the search exhausted its state budget before reaching a
  // verdict (then `linearizable` is false but means "unknown", not "no").
  // Callers running unbounded searches can ignore this: it is always true.
  bool decided = true;
  // On success: indices into the input history in linearization order
  // (pending operations that never took effect are omitted).
  std::vector<std::size_t> order;
  std::string explanation;  // on failure, a short diagnostic
};

// `max_states` bounds the number of distinct memoized search states explored
// (0 = unlimited). The bound is a safety valve for adversarial histories
// with huge concurrency windows (the problem is NP-complete); when it trips,
// the result has decided == false.
LinearizabilityResult check_linearizable(const object::ObjectModel& model,
                                         const std::vector<HistoryOp>& history,
                                         std::size_t max_states = 0);

// Checks only the RMW sub-history (the paper's robustness claim under clock
// desynchronization: the execution *excluding reads* remains linearizable).
LinearizabilityResult check_rmw_subhistory_linearizable(
    const object::ObjectModel& model, const std::vector<HistoryOp>& history,
    std::size_t max_states = 0);

}  // namespace cht::checker
