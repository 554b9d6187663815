// Megastore's Chubby-dependent write invalidation (paper Section 5).
//
// In Megastore, a write can only commit after every replica acknowledged
// it, or after each non-acknowledging replica has been *invalidated* —
// marked out-of-date so it refuses local reads. Invalidation is arbitrated
// by the Chubby lock service: a replica is invalidated once its Chubby
// session is observed (by the writer, through Chubby) to have expired.
//
// The vulnerability the paper highlights: "If the leader loses contact with
// Chubby while other processes maintain contact, writes can be left blocked
// forever. ... this problem ... requires manual intervention by an operator
// to fix." The writer cannot observe anything through Chubby while cut off
// from it, so the invalidation — and therefore the write — never completes,
// even though a majority of replicas is healthy.
//
// Our algorithm needs no such arbiter: the leader waits out the lease on
// its own (epsilon-synchronized) clock. This module exists to make that
// contrast executable (test_megastore_chubby.cc and E6 commentary).
//
// Scope: the session/invalidation machinery only; the data path (append,
// acks) is abstracted to "the writer collects acks", which is the part the
// vulnerability does not depend on.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/process.h"

namespace cht::baselines {

struct ChubbyConfig {
  Duration session_ttl = Duration::millis(120);
  Duration keepalive_interval = Duration::millis(30);
  Duration query_retry = Duration::millis(20);
};

namespace chubby_msg {

struct KeepAlive {
  static constexpr std::string_view kType = "chubby.keepalive";
};
struct LeaseGrant {
  static constexpr std::string_view kType = "chubby.leasegrant";
  Duration ttl;
};
struct Query {
  static constexpr std::string_view kType = "chubby.query";
  int subject = 0;  // whose session is being asked about
  std::int64_t query_id = 0;
};
struct QueryReply {
  static constexpr std::string_view kType = "chubby.queryreply";
  int subject = 0;
  std::int64_t query_id = 0;
  bool session_expired = false;
};
}  // namespace chubby_msg

// The lock service itself (a single well-known process, as Megastore uses
// it; its own fault tolerance is out of scope here).
class ChubbyService : public sim::Process {
 public:
  explicit ChubbyService(ChubbyConfig config) : config_(config) {}

  void on_start() override;
  // Session expiries are the service's acceptor-like state: a granted TTL is
  // synced before the grant leaves, and a restarted service replays them —
  // otherwise it would report live sessions as expired and let a writer
  // invalidate a replica whose lease is still running.
  void on_restart() override;
  void on_message(const sim::Message& message) override;
  using Inbox = sim::Inbox<chubby_msg::KeepAlive, chubby_msg::Query>;

  bool session_alive(int client);

 private:
  friend Inbox;
  void on(ProcessId client, const chubby_msg::KeepAlive& keepalive);
  void on(ProcessId from, const chubby_msg::Query& query);
  void persist_session(int client);

  ChubbyConfig config_;
  std::vector<LocalTime> session_expiry_;
};

// A Megastore-style participant: keeps a Chubby session alive and, when
// acting as the writer, runs the invalidation protocol for a write.
class MegastoreNode : public sim::Process {
 public:
  MegastoreNode(ProcessId chubby, ChubbyConfig config)
      : chubby_(chubby), config_(config) {}

  void on_start() override;
  void on_message(const sim::Message& message) override;
  using Inbox = sim::Inbox<chubby_msg::LeaseGrant, chubby_msg::QueryReply>;

  // Begins a write for which `non_ackers` did not acknowledge: it completes
  // once Chubby confirms each of their sessions expired. (Acks themselves
  // are abstracted away; pass the stragglers directly.)
  void begin_write(std::set<int> non_ackers);
  std::int64_t writes_completed() const { return writes_completed_; }
  std::int64_t writes_pending() const {
    return static_cast<std::int64_t>(pending_.size());
  }

  // Fault injection helper: stop sending keepalives (models losing Chubby
  // contact in the direction that matters for sessions; cutting the network
  // link via Network::set_link_down models full disconnection).
  void stop_keepalives() { keepalives_enabled_ = false; }

 private:
  struct PendingWrite {
    std::set<int> awaiting_invalidation;
    sim::EventHandle retry_timer;
  };

  friend Inbox;
  void on(ProcessId from, const chubby_msg::LeaseGrant& grant);
  void on(ProcessId from, const chubby_msg::QueryReply& reply);
  void keepalive_tick();
  void query_tick(std::int64_t write_seq);

  ProcessId chubby_;
  ChubbyConfig config_;
  bool keepalives_enabled_ = true;
  std::int64_t query_seq_ = 0;
  std::int64_t write_seq_ = 0;
  std::map<std::int64_t, PendingWrite> pending_;
  std::map<std::int64_t, std::int64_t> query_to_write_;
  std::int64_t writes_completed_ = 0;
};

}  // namespace cht::baselines
