#include "sim/simulation.h"

#include <algorithm>
#include <utility>

namespace cht::sim {

Simulation::Simulation(SimulationConfig config)
    : config_(config),
      rng_(config.seed),
      network_(queue_, rng_.split(), config.network) {
  network_.set_deliver_fn([this](const Message& m) { deliver(m); });
}

ProcessId Simulation::add_process(std::unique_ptr<Process> process) {
  CHT_ASSERT(!started_, "cannot add processes after start()");
  CHT_ASSERT(cluster_n_ == static_cast<int>(processes_.size()),
             "cluster members must be added before any client");
  ++cluster_n_;
  return add_slot(std::move(process));
}

ProcessId Simulation::add_client(std::unique_ptr<Process> process) {
  CHT_ASSERT(!started_, "cannot add clients after start()");
  return add_slot(std::move(process));
}

ProcessId Simulation::add_slot(std::unique_ptr<Process> process) {
  const ProcessId id(static_cast<int>(processes_.size()));
  processes_.push_back(std::move(process));
  const std::int64_t half = config_.epsilon.to_micros() / 2;
  const Duration offset =
      half == 0 ? Duration::zero() : Duration::micros(rng_.next_in(-half, half));
  clocks_.emplace_back(offset);
  // Storage seeds derive from (sim seed, index) inside StableStorage — no
  // draw from rng_, so pre-storage seeds keep their exact event streams.
  storages_.push_back(std::make_unique<StableStorage>(config_.seed, id.index(),
                                                      config_.storage));
  last_crash_.emplace_back();
  incarnations_.push_back(0);
  return id;
}

void Simulation::start() {
  CHT_ASSERT(!started_, "start() called twice");
  started_ = true;
  const int n = static_cast<int>(processes_.size());
  // Everyone — replicas and clients — is attached with the replica count:
  // cluster_size() feeds quorum math and broadcast fan-out, neither of which
  // may ever include a client.
  for (int i = 0; i < n; ++i) {
    processes_[i]->attach(this, ProcessId(i), cluster_n_);
  }
  for (int i = 0; i < n; ++i) {
    if (!processes_[i]->crashed()) processes_[i]->on_start();
  }
}

void Simulation::run_until(RealTime deadline) {
  while (!queue_.empty() && queue_.next_event_time() <= deadline) {
    queue_.step();
  }
  if (deadline > now()) queue_.advance_to(deadline);
}

bool Simulation::run_until(const std::function<bool()>& pred,
                           RealTime deadline) {
  if (pred()) return true;
  while (!queue_.empty() && queue_.next_event_time() <= deadline) {
    queue_.step();
    if (pred()) return true;
  }
  if (deadline > now()) queue_.advance_to(deadline);
  return false;
}

void Simulation::crash(ProcessId p) {
  Process& proc = process(p);
  if (proc.crashed()) return;
  trace_.record(now(), p, "crash", "");
  last_crash_.at(p.index()) = now();
  proc.mark_crashed();
  proc.on_crash();
  // The crash is abrupt: whatever the process wrote but never synced is now
  // subject to seed-deterministic loss/tearing (private storage Rng — no
  // perturbation of the global stream).
  storages_.at(p.index())->lose_unsynced_writes();
}

void Simulation::restart(ProcessId p, std::unique_ptr<Process> fresh) {
  CHT_ASSERT(started_, "restart() before start()");
  CHT_ASSERT(fresh != nullptr, "restart() needs a fresh incarnation");
  Process& old = process(p);
  CHT_ASSERT(old.crashed(), "restart() requires a crashed process");
  trace_.record(now(), p, "restart", "");
  ++incarnations_.at(p.index());
  graveyard_.push_back(std::move(processes_[p.index()]));
  fresh->attach(this, p, cluster_n_);
  processes_[p.index()] = std::move(fresh);
  processes_[p.index()]->on_restart();
}

bool Simulation::crashed_at_or_after(ProcessId p, RealTime t) const {
  if (processes_.at(p.index())->crashed()) return true;
  const auto& last = last_crash_.at(p.index());
  return last.has_value() && *last >= t;
}

void Simulation::set_clock_offset(ProcessId p, Duration offset) {
  clocks_.at(p.index()).set_offset(offset);
}

void Simulation::deliver(const Message& message) {
  // Messages already in flight when their sender crashed are still
  // delivered (the crash model loses no sent messages); crashed receivers
  // take no steps.
  Process& target = process(message.to);
  if (target.crashed()) return;
  target.on_message(message);
}

// --- Process service implementations (need Simulation's internals) --------

RealTime Process::now_real() const {
  CHT_ASSERT(sim_ != nullptr, "process not attached");
  return sim_->now();
}

LocalTime Process::now_local() const {
  CHT_ASSERT(sim_ != nullptr, "process not attached");
  return sim_->clock(id_).local_time(sim_->now());
}

void Process::post(Message message) {
  CHT_ASSERT(sim_ != nullptr, "process not attached");
  if (crashed_) return;
  // Self-sends also go through the network (uniform accounting, no handler
  // reentrancy).
  message.sent_local = sim_->clock(id_).local_time(sim_->now());
  sim_->network().send(std::move(message));
}

Rng& Process::rng() const {
  CHT_ASSERT(sim_ != nullptr, "process not attached");
  return sim_->rng();
}

StableStorage& Process::storage() const {
  CHT_ASSERT(sim_ != nullptr, "process not attached");
  return sim_->storage(id_);
}

int Process::incarnation() const {
  CHT_ASSERT(sim_ != nullptr, "process not attached");
  return sim_->incarnation(id_);
}

void Process::sync_storage(std::function<void()> fn) {
  StableStorage& st = storage();
  st.sync();
  if (st.effective_sync_latency() == Duration::zero()) {
    if (fn) fn();
    return;
  }
  // The data is durable from this moment; what nonzero latency models is the
  // *cost* of the fsync, paid serially at the device (sync_completion_us
  // queues this sync behind any still in flight). Continuations — and with
  // them every ack gated on durability — wait for the completion.
  const std::int64_t now_us = now_real().to_micros();
  const std::int64_t done_us = st.sync_completion_us(now_us);
  if (fn) schedule_after(Duration::micros(done_us - now_us), std::move(fn));
}

void Process::request_sync(std::function<void()> fn) {
  StableStorage& st = storage();
  if (!st.config().group_commit ||
      st.effective_sync_latency() == Duration::zero()) {
    st.note_flush_width(1);
    sync_storage(std::move(fn));
    return;
  }
  sync_pending_.push_back(std::move(fn));
  if (!sync_in_flight_) start_group_sync();
}

void Process::start_group_sync() {
  // Claim exactly the requests whose writes precede this sync() call;
  // requests arriving during the latency window are not covered by it and
  // queue for the next one.
  auto burst = std::make_shared<std::vector<std::function<void()>>>();
  burst->swap(sync_pending_);
  storage().note_flush_width(burst->size());
  sync_in_flight_ = true;
  sync_storage([this, burst] {
    for (auto& fn : *burst) {
      if (fn) fn();
    }
    sync_in_flight_ = false;
    if (!sync_pending_.empty()) start_group_sync();
  });
}

bool Process::tracing() const {
  CHT_ASSERT(sim_ != nullptr, "process not attached");
  return sim_->trace().enabled();
}

void Process::record_trace(std::string category, std::string detail) const {
  sim_->trace().record(sim_->now(), id_, std::move(category),
                       std::move(detail));
}

void Process::end_span(metrics::Span& span, std::string_view name) {
  const std::int64_t us = span.end(now_local().to_micros());
  if (us < 0 || !tracing()) return;
  std::string category = "span.";
  category += name;
  record_trace(std::move(category), "us=" + std::to_string(us));
}

EventHandle Process::schedule_after(Duration delay, std::function<void()> fn) {
  CHT_ASSERT(sim_ != nullptr, "process not attached");
  if (crashed_) return EventHandle();
  return sim_->queue().schedule(sim_->now() + delay, std::move(fn), this);
}

EventHandle Process::schedule_at_local(LocalTime when,
                                       std::function<void()> fn) {
  CHT_ASSERT(sim_ != nullptr, "process not attached");
  if (crashed_) return EventHandle();
  return sim_->queue().schedule(
      real_time_at(when),
      [this, when, fn = std::move(fn)] {
        if (now_local() >= when) {
          fn();
        } else {
          // The clock was set back. Re-arm this same timer, so the caller's
          // handle still cancels it.
          sim_->queue().rearm(real_time_at(when));
        }
      },
      this);
}

RealTime Process::real_time_at(LocalTime when) const {
  return std::max(sim_->clock(id_).real_time_when(when), sim_->now());
}

}  // namespace cht::sim
