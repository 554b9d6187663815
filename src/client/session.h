// Replica-side client session table (Raft-thesis §6.3 style dedup).
//
// One entry per client, holding the sequence number and response of that
// client's last *applied* RMW. Because clients issue RMWs strictly
// sequentially with monotonic sequence numbers, one entry is enough to
// decide every arriving request: seq > last is fresh, seq == last is a
// retry of the completed op (answer from the cache), seq < last is stale
// (the client has already moved on; drop).
//
// The table is replicated state: every replica updates it at *apply* time,
// in log order, from the same applied sequence — so all replicas agree on
// it, and crash recovery rebuilds it for free when the stack replays its
// durable log/batches through the apply path. No separate persistence, and
// the size is bounded by the number of clients (sessions never expire).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/types.h"

namespace cht::client {

class SessionTable {
 public:
  enum class Admit { kFresh, kDuplicate, kStale };

  // Classifies an arriving RMW against the client's applied prefix.
  Admit admit(const OperationId& id) const {
    const auto it = entries_.find(id.process.index());
    if (it == entries_.end() || id.seq > it->second.last_seq) {
      return Admit::kFresh;
    }
    return id.seq == it->second.last_seq ? Admit::kDuplicate : Admit::kStale;
  }

  // The cached response for a kDuplicate request; nullptr otherwise.
  const std::string* cached(const OperationId& id) const {
    const auto it = entries_.find(id.process.index());
    if (it == entries_.end() || it->second.last_seq != id.seq) return nullptr;
    return &it->second.last_response;
  }

  // Records an applied RMW. Called in apply order; a lower-seq record after
  // a higher one (impossible for sequential clients, but cheap to guard) is
  // ignored.
  void record(const OperationId& id, const std::string& response) {
    Entry& entry = entries_[id.process.index()];
    if (id.seq < entry.last_seq) return;
    entry.last_seq = id.seq;
    entry.last_response = response;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::int64_t last_seq = 0;
    std::string last_response;
  };

  // Keyed by client process index; ordered for deterministic iteration.
  std::map<int, Entry> entries_;
};

}  // namespace cht::client
