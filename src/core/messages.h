// Wire types of the replication algorithm.
//
// Following the paper's presentation, messages split into the consensus
// mechanism for RMW operations ("black code": EstReq/EstReply, Prepare/
// PrepareAck, Commit, RmwRequest, BatchRequest/BatchReply) and the read-
// lease mechanism ("red code": LeaseGrant, LeaseRequest). The read path
// itself sends no messages at all (reads are local).
#pragma once

#include <algorithm>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "object/object.h"

namespace cht::core {

// One client operation inside a batch.
struct BatchOp {
  OperationId id;
  object::Operation op;
  auto operator<=>(const BatchOp&) const = default;
};

// A batch is the set O of RMW operations committed together. Canonical form:
// sorted by operation id, no duplicates — the "pre-determined order, the
// same for all processes" in which batch operations are applied.
using Batch = std::vector<BatchOp>;

inline void canonicalize(Batch& batch) {
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
}

// A process's estimate: the freshest batch it has been notified of (not
// necessarily committed). Freshness order is lexicographic on (ts, k);
// `ts` is the local time at which the notifying leader became leader,
// unique across reigns by property EL1.
struct Estimate {
  Batch ops;
  LocalTime ts;
  BatchNumber k = 0;

  std::pair<LocalTime, BatchNumber> freshness() const { return {ts, k}; }
};

// A read lease: a promise by the leader that no batch numbered beyond
// `batch` will be committed before local time `issued + LeasePeriod` at the
// holder, unless the holder has been notified (Prepared) of it.
struct Lease {
  BatchNumber batch = 0;
  LocalTime issued;
};

// --- Message payloads -------------------------------------------------------

namespace msg {

struct RmwRequest {
  static constexpr std::string_view kType = "core.rmw";
  OperationId id;
  object::Operation op;
};

struct EstReq {
  static constexpr std::string_view kType = "core.estreq";
  LocalTime leader_time;  // when the sender became leader
};

struct EstReply {
  static constexpr std::string_view kType = "core.estreply";
  LocalTime leader_time;               // echoed from the request
  std::optional<Estimate> estimate;    // responder's estimate, if any
  std::optional<Batch> prev_batch;     // responder's Batch[estimate.k - 1]
};

struct Prepare {
  static constexpr std::string_view kType = "core.prepare";
  Batch ops;              // the batch O being proposed
  LocalTime leader_time;  // t: when the proposing leader became leader
  BatchNumber number = 0;     // j
  Batch prev_batch;       // Batch[j-1] (committed), empty for j == 1
};

struct PrepareAck {
  static constexpr std::string_view kType = "core.prepareack";
  LocalTime leader_time;
  BatchNumber number = 0;
};

struct Commit {
  static constexpr std::string_view kType = "core.commit";
  Batch ops;
  BatchNumber number = 0;
};

struct LeaseGrant {
  static constexpr std::string_view kType = "core.leasegrant";
  BatchNumber batch = 0;            // latest committed batch number
  LocalTime issued;             // leader's local time of issue
  std::set<int> leaseholders;   // current leaseholder set (process indices)
};

struct LeaseRequest {
  static constexpr std::string_view kType = "core.leaserequest";
};

struct BatchRequest {
  static constexpr std::string_view kType = "core.batchrequest";
  BatchNumber number = 0;
};

struct BatchReply {
  static constexpr std::string_view kType = "core.batchreply";
  BatchNumber number = 0;
  Batch ops;
};

// Only used by ReadPolicy::kLeaderForward (baseline): the paper's algorithm
// never sends messages for reads.
struct ReadRequest {
  static constexpr std::string_view kType = "core.readrequest";
  OperationId id;
  object::Operation op;
};

struct ReadReply {
  static constexpr std::string_view kType = "core.readreply";
  OperationId id;
  object::Response response;
};

}  // namespace msg
}  // namespace cht::core
