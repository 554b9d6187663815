// Operation histories for linearizability checking.
//
// A history is a set of operation records with real-time invocation and
// response instants. Records of operations that never completed (pending at
// the end of a run) have no response; the checker may linearize them with
// any effect or drop them entirely.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "object/object.h"

namespace cht::checker {

struct HistoryOp {
  ProcessId process;
  object::Operation op;
  RealTime invoked;
  std::optional<RealTime> responded;  // nullopt => pending at end of run
  std::optional<object::Response> response;
  // Protocol-level id of the operation, when the submitting stack exposes
  // one (RMW paths do; local reads never enter a log and keep the invalid
  // default). The durability invariant joins on this id to ask "is every
  // acknowledged write still committed somewhere after the power cycles".
  OperationId id{};

  bool completed() const { return responded.has_value(); }
  Duration latency() const {
    return completed() ? *responded - invoked : Duration::max();
  }
};

// Collects operation records from client callbacks. Each begin() returns a
// token; complete it with the response when the operation's callback fires.
class HistoryRecorder {
 public:
  using Token = std::size_t;

  Token begin(ProcessId process, object::Operation op, RealTime now) {
    ops_.push_back(HistoryOp{process, std::move(op), now, std::nullopt,
                             std::nullopt, OperationId{}});
    return ops_.size() - 1;
  }

  void end(Token token, object::Response response, RealTime now) {
    ops_.at(token).responded = now;
    ops_.at(token).response = std::move(response);
  }

  // Attaches the protocol-level operation id once the submit path returns
  // it (after begin(), which only knows the client-facing request).
  void set_id(Token token, OperationId id) { ops_.at(token).id = id; }

  const std::vector<HistoryOp>& ops() const { return ops_; }

  std::size_t completed_count() const {
    std::size_t n = 0;
    for (const auto& op : ops_) {
      if (op.completed()) ++n;
    }
    return n;
  }

 private:
  std::vector<HistoryOp> ops_;
};

}  // namespace cht::checker
