#include "checker/linearizability.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/assert.h"

namespace cht::checker {
namespace {

// Murmur3's 64-bit finalizer: every input bit moves every output bit, so a
// slot index taken from either half of the result depends on the whole key.
std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::uint64_t hash_words(const std::uint64_t* words, std::size_t n) {
  std::uint64_t h = n;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ words[i]) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  return mix(h);
}

// The memo of visited search states: an exact set of keys, each a run of
// 64-bit words. The keys lie end to end in one arena, each after a word
// holding its length, and an open-addressing table of arena offsets indexes
// them. Membership compares whole keys, never hashes alone: a false match
// would prune a live branch and convict a linearizable history.
class VisitedSet {
 public:
  // Adds the key unless it is present; returns whether it was added.
  bool insert(const std::vector<std::uint64_t>& key) {
    if (slots_.empty()) rehash(16);
    const auto tag =
        static_cast<std::uint32_t>(hash_words(key.data(), key.size()) >> 32);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.offset == 0) {
        CHT_ASSERT(arena_.size() < UINT32_MAX, "visited set arena overflow");
        slot = Slot{static_cast<std::uint32_t>(arena_.size() + 1), tag};
        arena_.push_back(key.size());
        arena_.insert(arena_.end(), key.begin(), key.end());
        if (++size_ * 2 > slots_.size()) rehash(slots_.size() * 2);
        return true;
      }
      if (slot.tag == tag && stored_equals(slot.offset - 1, key)) return false;
    }
  }

  std::size_t size() const { return size_; }

 private:
  // A key's home slot is its tag modulo the table size, so growing the
  // table moves slots without reading or hashing the keys again.
  struct Slot {
    std::uint32_t offset = 0;  // arena offset of the key's length word + 1
    std::uint32_t tag = 0;     // high half of the key's hash
  };

  bool stored_equals(std::size_t at,
                     const std::vector<std::uint64_t>& key) const {
    return arena_[at] == key.size() &&
           std::equal(key.begin(), key.end(), arena_.begin() + at + 1);
  }

  void rehash(std::size_t capacity) {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(capacity));
    const std::size_t mask = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.offset == 0) continue;
      std::size_t i = slot.tag & mask;
      while (slots_[i].offset != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<std::uint64_t> arena_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

// The successor state and response of each (state id, op id) pair the
// search has tried, in an open-addressing table keyed by the pair.
class TransitionCache {
 public:
  struct Transition {
    std::uint32_t next;
    std::uint32_t response;
  };

  const Transition* find(std::uint32_t state, std::uint32_t op) const {
    if (slots_.empty()) return nullptr;
    const std::uint64_t key = pack(state, op);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) return &slots_[i].transition;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }

  // Records a transition that find() did not return.
  void insert(std::uint32_t state, std::uint32_t op, Transition transition) {
    if ((size_ + 1) * 2 > slots_.size()) {
      const std::vector<Slot> old = std::exchange(
          slots_,
          std::vector<Slot>(std::max<std::size_t>(16, slots_.size() * 2)));
      for (const Slot& slot : old) {
        if (slot.key != kEmpty) place(slot);
      }
    }
    place(Slot{pack(state, op), transition});
    ++size_;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    Transition transition{};
  };

  static std::uint64_t pack(std::uint32_t state, std::uint32_t op) {
    return std::uint64_t{state} << 32 | op;
  }

  void place(const Slot& slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(slot.key) & mask;
    while (slots_[i].key != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

// Depth-first search for a linearization over interned ids: each distinct
// operation, expected response and object state (by fingerprint) is a small
// integer, each (state, op) transition is computed once with one clone()
// and apply(), and visiting a search state allocates nothing once the
// tables have grown.
class Search {
 public:
  // `indices` names the operations of `history` to check, in increasing
  // order; `history` must outlive the search.
  Search(const object::ObjectModel& model,
         const std::vector<HistoryOp>& history,
         std::vector<std::size_t> indices, std::size_t max_states)
      : model_(model), max_states_(max_states) {
    CHT_ASSERT(indices.size() < UINT32_MAX, "history too long to check");
    // Sorting by (invocation, index) keeps ties in history order, as a
    // stable sort by invocation would.
    std::sort(indices.begin(), indices.end(),
              [&history](std::size_t a, std::size_t b) {
                return history[a].invoked != history[b].invoked
                           ? history[a].invoked < history[b].invoked
                           : a < b;
              });
    std::map<std::reference_wrapper<const object::Operation>, std::uint32_t,
             std::less<object::Operation>>
        op_ids;
    ops_.reserve(indices.size());
    for (const std::size_t index : indices) {
      const HistoryOp& record = history[index];
      const auto op = op_ids.try_emplace(std::cref(record.op),
                                         static_cast<std::uint32_t>(
                                             operations_.size()));
      if (op.second) operations_.push_back(&record.op);
      Op entry{record.invoked, RealTime::max(), op.first->second, kPending,
               &record};
      if (record.completed()) {
        CHT_ASSERT(record.response.has_value(),
                   "a completed operation has a response");
        entry.responded = *record.responded;
        entry.response =
            response_ids_
                .try_emplace(*record.response,
                             static_cast<std::uint32_t>(response_ids_.size()))
                .first->second;
        ++completed_remaining_;
      }
      ops_.push_back(entry);
    }
    linearized_.assign(ops_.size() / 64 + 1, 0);
    completed_total_ = completed_remaining_;
    stuck_example_ = ops_.size();
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
      if (stuck_example_ < ops_.size()) {
        const HistoryOp& op = *ops_[stuck_example_].record;
        os << "; first unplaceable: " << op.process << " " << op.op
           << " -> " << (op.response ? *op.response : std::string("<pending>"))
           << " invoked@" << op.invoked.to_micros() << "us";
      }
      result.explanation = os.str();
    }
    return result;
  }

 private:
  static constexpr std::uint32_t kPending = UINT32_MAX;  // no response
  static constexpr std::uint32_t kUnmatched = UINT32_MAX - 1;

  // One operation of the history, in invocation order.
  struct Op {
    RealTime invoked;
    RealTime responded;      // RealTime::max() while pending
    std::uint32_t op;        // interned Operation
    std::uint32_t response;  // interned expected response, or kPending
    const HistoryOp* record;

    bool completed() const { return response != kPending; }
  };

  // One search state: the object state reached by the ops linearized so
  // far, the first index not yet linearized, and the candidate being tried.
  struct Frame {
    std::uint32_t state = 0;  // interned object state
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

  // The first index at or after i that is not linearized, or ops_.size().
  // Skips linearized ops a word at a time: a pending op that never takes
  // effect keeps base behind every op linearized after it.
  std::size_t next_open(std::size_t i) const {
    std::size_t word = i / 64;
    std::uint64_t open = ~linearized_[word] & (~std::uint64_t{0} << (i % 64));
    while (open == 0) {
      if (++word == linearized_.size()) return ops_.size();
      open = ~linearized_[word];
    }
    return std::min<std::size_t>(word * 64 + std::countr_zero(open),
                                 ops_.size());
  }
  void flip_linearized(std::size_t i) {
    linearized_[i / 64] ^= std::uint64_t{1} << (i % 64);
  }

  // Depth-first search over linearization orders. The stack is explicit so
  // that a history of any length cannot overflow the call stack; it visits
  // states in the order a recursive search would.
  bool search() {
    if (enter(intern(model_.make_initial_state()), 0)) return true;
    while (!stack_.empty() && !budget_exhausted_) {
      Frame& frame = stack_.back();
      if (frame.placed) unplace(frame);
      const std::optional<std::uint32_t> next_state = place_next(frame);
      if (!next_state) {
        stack_.pop_back();  // no candidate of this state leads anywhere
        continue;
      }
      if (enter(*next_state, frame.base)) return true;
    }
    return false;
  }

  // Visits the search state (state, base). Returns true once every
  // completed op is linearized; otherwise pushes the state's frame unless
  // it was visited before or the budget ran out.
  bool enter(std::uint32_t state, std::size_t base) {
    base = next_open(base);
    if (completed_remaining_ == 0) return true;  // all completed ops placed

    if (completed_total_ - completed_remaining_ > best_progress_) {
      best_progress_ = completed_total_ - completed_remaining_;
      stuck_example_ = ops_.size();
    }

    // The key names (linearized set, state) exactly: every index below
    // base is linearized and none past last_linearized_, so the words of
    // the bitset from base's through last_linearized_'s hold the rest.
    key_.clear();
    key_.push_back(std::uint64_t{base} << 32 | state);
    if (last_linearized_ >= base) {
      key_.insert(key_.end(), linearized_.begin() + base / 64,
                  linearized_.begin() + last_linearized_ / 64 + 1);
    }
    if (!visited_.insert(key_)) return false;
    if (max_states_ != 0 && visited_.size() >= max_states_) {
      budget_exhausted_ = true;
      return false;
    }

    // The earliest response among non-linearized ops bounds which op may be
    // linearized next: anything invoked after that response must come later.
    RealTime min_response = RealTime::max();
    for (std::size_t i = base; i < ops_.size(); i = next_open(i + 1)) {
      if (ops_[i].completed()) {
        min_response = std::min(min_response, ops_[i].responded);
      }
      // Ops invoked after min_response cannot tighten it further in a way
      // that matters for candidacy; stop once invocations pass it.
      if (ops_[i].invoked > min_response) break;
    }
    stack_.push_back(
        Frame{state, base, min_response, false, base, std::nullopt, 0});
    return false;
  }

  // Linearizes the frame's next candidate and returns the state it leads
  // to, or nothing once both passes are exhausted.
  //
  // Completed candidates are tried before pending ones: pending operations
  // (typically writes whose submitter crashed) most often never took
  // effect, and exploring their speculative insertions first makes the
  // search exponential in their number. Completed-first finds witnesses of
  // linearizable histories quickly; completeness is unaffected (both passes
  // together cover every candidate).
  std::optional<std::uint32_t> place_next(Frame& frame) {
    while (true) {
      for (std::size_t i = next_open(frame.next); i < ops_.size();
           i = next_open(i + 1)) {
        const Op& op = ops_[i];
        if (op.invoked > frame.min_response) break;  // sorted by invocation
        if (op.completed() == frame.pending_pass) continue;

        const TransitionCache::Transition step = transition(frame.state, op.op);
        if (op.completed() && step.response != op.response) {
          if (stuck_example_ == ops_.size()) stuck_example_ = i;
          continue;  // response mismatch: cannot take effect here
        }

        flip_linearized(i);
        frame.next = i + 1;
        frame.placed = i;
        frame.saved_last = last_linearized_;
        last_linearized_ = std::max(last_linearized_, i);
        if (op.completed()) --completed_remaining_;
        order_.push_back(i);
        return step.next;
      }
      if (frame.pending_pass) return std::nullopt;
      frame.pending_pass = true;
      frame.next = frame.base;
    }
  }

  // Takes back the candidate the frame placed.
  void unplace(Frame& frame) {
    const std::size_t i = *frame.placed;
    order_.pop_back();
    if (ops_[i].completed()) ++completed_remaining_;
    last_linearized_ = frame.saved_last;
    flip_linearized(i);
    frame.placed.reset();
  }

  // Applies operation `op` to state `state`, the first time on a clone.
  TransitionCache::Transition transition(std::uint32_t state,
                                         std::uint32_t op) {
    if (const auto* cached = transitions_.find(state, op)) return *cached;
    auto next = states_[state]->clone();
    const object::Response got = model_.apply(*next, *operations_[op]);
    const auto response = response_ids_.find(std::string_view(got));
    const TransitionCache::Transition step{
        intern(std::move(next)),
        response == response_ids_.end() ? kUnmatched : response->second};
    transitions_.insert(state, op, step);
    return step;
  }

  // The id of the state with this one's fingerprint, adding it if new.
  std::uint32_t intern(std::unique_ptr<object::ObjectState> state) {
    const auto [it, added] = state_ids_.try_emplace(
        state->fingerprint(), static_cast<std::uint32_t>(states_.size()));
    if (added) {
      CHT_ASSERT(states_.size() < kUnmatched, "too many object states");
      states_.push_back(std::move(state));
    }
    return it->second;
  }

  const object::ObjectModel& model_;
  std::vector<Op> ops_;
  // Interned operations, expected responses and object states.
  std::vector<const object::Operation*> operations_;
  std::map<std::string_view, std::uint32_t> response_ids_;
  std::vector<std::unique_ptr<object::ObjectState>> states_;
  std::map<std::string, std::uint32_t> state_ids_;
  TransitionCache transitions_;

  std::vector<std::uint64_t> linearized_;  // bitset over ops_
  std::size_t completed_remaining_ = 0;
  std::size_t completed_total_ = 0;
  std::size_t last_linearized_ = 0;
  std::vector<std::size_t> order_;
  std::vector<Frame> stack_;
  VisitedSet visited_;
  std::vector<std::uint64_t> key_;  // scratch for enter()
  std::size_t max_states_ = 0;
  bool budget_exhausted_ = false;
  std::size_t best_progress_ = 0;
  std::size_t stuck_example_ = static_cast<std::size_t>(-1);
};

// Checks the operations of `history` named by `indices` (in increasing
// order).
LinearizabilityResult check_ops(const object::ObjectModel& model,
                                const std::vector<HistoryOp>& history,
                                std::vector<std::size_t> indices,
                                std::size_t max_states) {
  // Locality (Herlihy & Wing): if every operation touches exactly one
  // sub-object, the history is linearizable iff each sub-object's
  // sub-history is. Partitioning collapses the search space dramatically
  // for multi-key workloads.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (const std::size_t index : indices) {
    std::string label = model.partition_label(history[index].op);
    if (label.empty()) {
      groups.clear();
      break;
    }
    groups[std::move(label)].push_back(index);
  }
  if (groups.size() > 1) {
    LinearizabilityResult combined;
    combined.linearizable = true;
    LinearizabilityResult undecided;  // kept only if no group fails outright
    for (auto& [label, group] : groups) {
      Search search(model, history, std::move(group), max_states);
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
  // One group holds every operation, in history order: the plain search
  // (which preserves `order`).
  Search search(model, history, std::move(indices), max_states);
  return search.run();
}

}  // namespace

LinearizabilityResult check_linearizable(const object::ObjectModel& model,
                                         const std::vector<HistoryOp>& history,
                                         std::size_t max_states) {
  std::vector<std::size_t> all(history.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return check_ops(model, history, std::move(all), max_states);
}

LinearizabilityResult check_rmw_subhistory_linearizable(
    const object::ObjectModel& model, const std::vector<HistoryOp>& history,
    std::size_t max_states) {
  std::vector<std::size_t> rmws;
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (!model.is_read(history[i].op)) rmws.push_back(i);
  }
  return check_ops(model, history, std::move(rmws), max_states);
}

}  // namespace cht::checker
