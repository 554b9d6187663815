#include "checker/linearizability.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/assert.h"

namespace cht::checker {
namespace {

class Search {
 public:
  Search(const object::ObjectModel& model, std::vector<HistoryOp> history,
         std::size_t max_states)
      : model_(model), history_(std::move(history)), max_states_(max_states) {
    std::stable_sort(history_.begin(), history_.end(),
                     [](const HistoryOp& a, const HistoryOp& b) {
                       return a.invoked < b.invoked;
                     });
    linearized_.assign(history_.size(), false);
    completed_remaining_ = 0;
    for (const auto& op : history_) {
      if (op.completed()) ++completed_remaining_;
    }
    completed_total_ = completed_remaining_;
    stuck_example_ = history_.size();
  }

  LinearizabilityResult run() {
    LinearizabilityResult result;
    if (search()) {
      result.linearizable = true;
      result.order = order_;
    } else if (budget_exhausted_) {
      result.linearizable = false;
      result.decided = false;
      std::ostringstream os;
      os << "undecided: search state budget (" << max_states_
         << " states) exhausted; deepest progress " << best_progress_ << "/"
         << completed_total_ << " completed ops";
      result.explanation = os.str();
    } else {
      result.linearizable = false;
      std::ostringstream os;
      os << "no linearization; deepest progress " << best_progress_ << "/"
         << completed_total_ << " completed ops";
      if (stuck_example_ < history_.size()) {
        const HistoryOp& op = history_[stuck_example_];
        os << "; first unplaceable: " << op.process << " " << op.op
           << " -> " << (op.response ? *op.response : std::string("<pending>"))
           << " invoked@" << op.invoked.to_micros() << "us";
      }
      result.explanation = os.str();
    }
    return result;
  }

 private:
  // Encodes (linearized-beyond-base set, object state) for memoization.
  std::string memo_key(const object::ObjectState& state,
                       std::size_t base) const {
    std::string key = std::to_string(base);
    key += '|';
    for (std::size_t i = base; i < history_.size(); ++i) {
      if (linearized_[i]) {
        key += std::to_string(i);
        key += ',';
      }
      // Operations far beyond any linearized index cannot have been touched.
      if (!linearized_[i] && i > last_linearized_ && i > base) break;
    }
    key += '|';
    key += state.fingerprint();
    return key;
  }

  // One search state: the object state reached by the ops linearized so
  // far, the first index not yet linearized, and the candidate being tried.
  struct Frame {
    std::unique_ptr<object::ObjectState> state;
    std::size_t base = 0;
    // Bounds which op may be linearized next (see enter()).
    RealTime min_response = RealTime::max();
    bool pending_pass = false;  // completed candidates first, then pending
    std::size_t next = 0;       // next index to try in the current pass
    // The candidate linearized on top of this state, if any, and the
    // last_linearized_ it replaced.
    std::optional<std::size_t> placed;
    std::size_t saved_last = 0;
  };

  // Depth-first search over linearization orders. The stack is explicit so
  // that a history of any length cannot overflow the call stack; it visits
  // states in the order a recursive search would.
  bool search() {
    if (enter(model_.make_initial_state(), 0)) return true;
    while (!stack_.empty() && !budget_exhausted_) {
      Frame& frame = stack_.back();
      if (frame.placed) unplace(frame);
      std::unique_ptr<object::ObjectState> next_state = place_next(frame);
      if (!next_state) {
        stack_.pop_back();  // no candidate of this state leads anywhere
        continue;
      }
      const std::size_t base = frame.base;
      if (enter(std::move(next_state), base)) return true;
    }
    return false;
  }

  // Visits the search state (state, base). Returns true once every
  // completed op is linearized; otherwise pushes the state's frame unless
  // it was visited before or the budget ran out.
  bool enter(std::unique_ptr<object::ObjectState> state, std::size_t base) {
    while (base < history_.size() && linearized_[base]) ++base;
    if (completed_remaining_ == 0) return true;  // all completed ops placed

    if (completed_total_ - completed_remaining_ > best_progress_) {
      best_progress_ = completed_total_ - completed_remaining_;
      stuck_example_ = history_.size();
    }

    if (!memo_.insert(memo_key(*state, base)).second) return false;
    if (max_states_ != 0 && memo_.size() >= max_states_) {
      budget_exhausted_ = true;
      return false;
    }

    // The earliest response among non-linearized ops bounds which op may be
    // linearized next: anything invoked after that response must come later.
    RealTime min_response = RealTime::max();
    for (std::size_t i = base; i < history_.size(); ++i) {
      if (linearized_[i]) continue;
      if (history_[i].completed()) {
        min_response = std::min(min_response, *history_[i].responded);
      }
      // Ops invoked after min_response cannot tighten it further in a way
      // that matters for candidacy; stop once invocations pass it.
      if (history_[i].invoked > min_response) break;
    }
    stack_.push_back(Frame{std::move(state), base, min_response, false, base,
                           std::nullopt, 0});
    return false;
  }

  // Linearizes the frame's next candidate on a copy of its state and
  // returns that copy, or null once both passes are exhausted.
  //
  // Completed candidates are tried before pending ones: pending operations
  // (typically writes whose submitter crashed) most often never took
  // effect, and exploring their speculative insertions first makes the
  // search exponential in their number. Completed-first finds witnesses of
  // linearizable histories quickly; completeness is unaffected (both passes
  // together cover every candidate).
  std::unique_ptr<object::ObjectState> place_next(Frame& frame) {
    while (true) {
      for (std::size_t i = frame.next; i < history_.size(); ++i) {
        if (linearized_[i]) continue;
        const HistoryOp& op = history_[i];
        if (op.invoked > frame.min_response) break;  // sorted by invocation
        if (op.completed() == frame.pending_pass) continue;

        auto next_state = frame.state->clone();
        const object::Response got = model_.apply(*next_state, op.op);
        if (op.completed() && got != *op.response) {
          if (stuck_example_ == history_.size()) stuck_example_ = i;
          continue;  // response mismatch: cannot take effect here
        }

        linearized_[i] = true;
        frame.next = i + 1;
        frame.placed = i;
        frame.saved_last = last_linearized_;
        last_linearized_ = std::max(last_linearized_, i);
        if (op.completed()) --completed_remaining_;
        order_.push_back(i);
        return next_state;
      }
      if (frame.pending_pass) return nullptr;
      frame.pending_pass = true;
      frame.next = frame.base;
    }
  }

  // Takes back the candidate the frame placed.
  void unplace(Frame& frame) {
    const std::size_t i = *frame.placed;
    order_.pop_back();
    if (history_[i].completed()) ++completed_remaining_;
    last_linearized_ = frame.saved_last;
    linearized_[i] = false;
    frame.placed.reset();
  }

  const object::ObjectModel& model_;
  std::vector<HistoryOp> history_;
  std::vector<bool> linearized_;
  std::size_t completed_remaining_ = 0;
  std::size_t completed_total_ = 0;
  std::size_t last_linearized_ = 0;
  std::vector<std::size_t> order_;
  std::vector<Frame> stack_;
  // Hash set is safe here: the search only does insert()/size() — the
  // verdict and the budget cut depend on how many distinct states were
  // memoized, never on the order they would enumerate in.
  std::unordered_set<std::string> memo_;  // detlint: order-independent (insert/size only; never iterated)
  std::size_t max_states_ = 0;
  bool budget_exhausted_ = false;
  std::size_t best_progress_ = 0;
  std::size_t stuck_example_ = static_cast<std::size_t>(-1);
};

}  // namespace

LinearizabilityResult check_linearizable(const object::ObjectModel& model,
                                         std::vector<HistoryOp> history,
                                         std::size_t max_states) {
  // Locality (Herlihy & Wing): if every operation touches exactly one
  // sub-object, the history is linearizable iff each sub-object's
  // sub-history is. Partitioning collapses the search space dramatically
  // for multi-key workloads.
  bool partitionable = !history.empty();
  for (const auto& op : history) {
    if (model.partition_label(op.op).empty()) {
      partitionable = false;
      break;
    }
  }
  if (partitionable) {
    std::map<std::string, std::vector<HistoryOp>> groups;
    for (auto& op : history) {
      groups[model.partition_label(op.op)].push_back(std::move(op));
    }
    if (groups.size() > 1) {
      LinearizabilityResult combined;
      combined.linearizable = true;
      LinearizabilityResult undecided;  // kept only if no group fails outright
      for (auto& [label, group] : groups) {
        Search search(model, std::move(group), max_states);
        LinearizabilityResult result = search.run();
        if (!result.linearizable) {
          result.explanation = "sub-object '" + label + "': " +
                               result.explanation;
          if (result.decided) return result;  // definite failure wins
          undecided = std::move(result);
        }
        // Note: per-group orders are not merged into a global order; callers
        // needing `order` should check unpartitioned histories.
      }
      if (!undecided.decided) return undecided;
      return combined;
    }
    // Single group: fall through to the plain search (preserves `order`).
    history.clear();
    for (auto& [label, group] : groups) history = std::move(group);
  }
  Search search(model, std::move(history), max_states);
  return search.run();
}

LinearizabilityResult check_rmw_subhistory_linearizable(
    const object::ObjectModel& model, const std::vector<HistoryOp>& history,
    std::size_t max_states) {
  std::vector<HistoryOp> rmw_only;
  for (const auto& op : history) {
    if (!model.is_read(op.op)) rmw_only.push_back(op);
  }
  return check_linearizable(model, std::move(rmw_only), max_states);
}

}  // namespace cht::checker
