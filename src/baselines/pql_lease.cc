#include "baselines/pql_lease.h"

#include <algorithm>
#include <string>

#include "common/assert.h"
#include "sim/storage.h"

namespace cht::baselines {

namespace {
constexpr Duration kLeaseDuration = Duration::millis(120);
// One-way delay budget: a grantor's guarantee expires at the grantor no
// later than at the leaseholder.
constexpr Duration kGuard = Duration::millis(10);
// After a revocation, guarantees already in flight (issued before the
// revoke) must not resurrect the lease; the leaseholder ignores incoming
// guarantees for this long (< kRenewalInterval, so the next full renewal
// round re-establishes the lease).
constexpr Duration kRevokeQuiet = Duration::millis(25);
}  // namespace

void PqlProcess::on_start() {
  guarantee_expiry_.assign(cluster_size(), RealTime::min());
  renewal_tick();
}

void PqlProcess::on_restart() {
  guarantee_expiry_.assign(cluster_size(), RealTime::min());
  // Leaseholder guarantees are conservatively gone; the grantor round is
  // acceptor state and resumes past every round the previous incarnation
  // could have promised.
  if (const auto round = storage().read("round")) round_ = std::stoll(*round);
  write_seq_ = static_cast<std::int64_t>(incarnation()) << 40;
  renewal_tick();
}

void PqlProcess::renewal_tick() {
  // Grantor role: start a renewal round with every leaseholder. PQL measures
  // leases with elapsed-time timers, so establishing one guarantee takes two
  // round trips per (grantor, leaseholder) pair: the first to bound the
  // clockless skew, the second to activate the guarantee.
  ++round_;
  storage().write("round", std::to_string(round_));
  // The round record is acceptor state: no Promise for round r may leave
  // before r is durable, so the broadcast rides the covering sync
  // (coalescing with any other record replays pending in the window).
  const std::int64_t round = round_;
  request_sync([this, round] {
    broadcast(msg::Promise{round});
  });
  schedule_after(kRenewalInterval, [this] { renewal_tick(); });
}

bool PqlProcess::lease_active() {
  const RealTime now = now_real();
  if (now < revoke_quiet_until_) return false;
  int active = 1;  // self-granted guarantee is trivially fresh
  for (int i = 0; i < cluster_size(); ++i) {
    if (i == id().index()) continue;
    if (guarantee_expiry_[i] > now) ++active;
  }
  const bool held = active > cluster_size() / 2;
  if (held && clock_guard_.suspect()) {
    // Degraded: the guarantees were measured on a clock the guard distrusts,
    // so report the lease inactive and let callers take the quorum path.
    c_reads_degraded_->inc();
    return false;
  }
  return held;
}

void PqlProcess::begin_write() {
  // The writing quorum revokes all outstanding leases; the write completes
  // when every leaseholder acknowledged the revocation or its lease expired.
  ++write_seq_;
  PendingWrite write;
  write.seq = write_seq_;
  write.acked.assign(cluster_size(), false);
  write.acked[id().index()] = true;
  const std::int64_t seq = write.seq;
  write.expiry_timer =
      schedule_after(kLeaseDuration + kGuard, [this, seq] {
        for (auto& w : pending_writes_) {
          if (w.seq == seq) {
            std::fill(w.acked.begin(), w.acked.end(), true);
          }
        }
        maybe_finish_write();
      });
  pending_writes_.push_back(std::move(write));
  broadcast(msg::Revoke{write_seq_});
  maybe_finish_write();
}

void PqlProcess::maybe_finish_write() {
  for (auto it = pending_writes_.begin(); it != pending_writes_.end();) {
    const bool done =
        std::all_of(it->acked.begin(), it->acked.end(), [](bool b) { return b; });
    if (done) {
      it->expiry_timer.cancel();
      ++writes_completed_;
      it = pending_writes_.erase(it);
    } else {
      ++it;
    }
  }
}

void PqlProcess::on_message(const sim::Message& message) {
  if (clock_guard_.observe(message.sent_local, now_local(), now_real())) {
    c_clock_transitions_->inc();
  }
  if (!Inbox::dispatch(message, *this)) {
    CHT_UNREACHABLE("unknown message type for pql process");
  }
}

void PqlProcess::on(ProcessId from, const msg::Promise& promise) {
  send(from, msg::PromiseAck{promise.round});
}

void PqlProcess::on(ProcessId from, const msg::PromiseAck& ack) {
  // Round trip one done: activate the guarantee with a second round trip.
  send(from, msg::Guarantee{ack.round});
}

void PqlProcess::on(ProcessId from, const msg::Guarantee& guarantee) {
  if (now_real() >= revoke_quiet_until_) {
    guarantee_expiry_[from.index()] = now_real() + kLeaseDuration;
  }
  send(from, msg::GuaranteeAck{guarantee.round});
}

void PqlProcess::on(ProcessId from, const msg::Revoke& revoke) {
  // Drop every guarantee and ignore in-flight ones: reads stop being
  // local until the next full renewal completes.
  guarantee_expiry_.assign(cluster_size(), RealTime::min());
  revoke_quiet_until_ = now_real() + kRevokeQuiet;
  send(from, msg::RevokeAck{revoke.write_seq});
}

void PqlProcess::on(ProcessId from, const msg::RevokeAck& ack) {
  for (auto& write : pending_writes_) {
    if (write.seq == ack.write_seq) write.acked[from.index()] = true;
  }
  maybe_finish_write();
}

}  // namespace cht::baselines
