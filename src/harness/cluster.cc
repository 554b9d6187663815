#include "harness/cluster.h"

#include <algorithm>
#include <ranges>

namespace cht::harness {
namespace {

// Ids of the non-read operations in a committed or stored sequence, in
// order. An entry is one operation or, for chtread, a batch of them.
template <class Entries>
std::vector<OperationId> op_ids(const Entries& entries,
                                const object::ObjectModel& model) {
  std::vector<OperationId> ids;
  const auto add = [&](const auto& op) {
    if (!model.is_read(op.op)) ids.push_back(op.id);
  };
  for (const auto& entry : entries) {
    if constexpr (std::ranges::range<decltype(entry)>) {
      std::ranges::for_each(entry, add);
    } else {
      add(entry);
    }
  }
  return ids;
}

}  // namespace

template <class Stack>
StackCluster<Stack>::StackCluster(
    ClusterConfig config, std::shared_ptr<const object::ObjectModel> model,
    Options options)
    : config_(config),
      model_(std::move(model)),
      options_(std::move(options)),
      protocol_(Stack::name(options_)),
      replica_config_(Stack::make_config(config_, options_)),
      sim_(config_.to_sim_config()) {
  for (int i = 0; i < config_.n; ++i) {
    sim_.add_process(std::make_unique<Replica>(model_, replica_config_));
  }
  for (int j = 0; j < config_.clients; ++j) {
    sim_.add_client(
        std::make_unique<client::Client>(j % config_.n, config_.delta));
  }
  sim_.start();
}

template <class Stack>
void StackCluster<Stack>::submit(int i, object::Operation op, Callback done) {
  ++submitted_;
  const bool is_read = model_->is_read(op);
  if (client_path()) {
    client::Client& via = client(i % config_.clients);
    // Invocation is recorded at dispatch (first wire send), not enqueue:
    // the client's internal queue is not observable concurrency, and the
    // reply always arrives after dispatch, so the token is set by then.
    const auto token = std::make_shared<checker::HistoryRecorder::Token>();
    const ProcessId pid = via.id();
    object::Operation recorded = op;  // hook's copy; `op` moves into submit
    via.submit(
        std::move(op), is_read,
        [this, token, done = std::move(done)](const OperationId&,
                                              const std::string& response) {
          history_.end(*token, response, sim_.now());
          ++completed_;
          if (done) done(response);
        },
        [this, token, pid, is_read,
         recorded = std::move(recorded)](const OperationId& cid) {
          *token = history_.begin(pid, recorded, sim_.now());
          if (!is_read) history_.set_id(*token, cid);
        });
    return;
  }
  const auto token = history_.begin(ProcessId(i), op, sim_.now());
  Callback record = [this, token, done = std::move(done)](
                        const object::Response& response) {
    history_.end(token, response, sim_.now());
    ++completed_;
    if (done) done(response);
  };
  // Durability accounting joins on writes only, so reads (VR gives them ids
  // too) carry none in the history.
  if (is_read) {
    replica(i).submit_read(std::move(op), std::move(record));
  } else {
    history_.set_id(token,
                    replica(i).submit_rmw(std::move(op), std::move(record)));
  }
}

template <class Stack>
bool StackCluster<Stack>::await_leader(Duration timeout) {
  const RealTime deadline = sim_.now() + timeout;
  return sim_.run_until([this] { return leader() >= 0; }, deadline);
}

template <class Stack>
bool StackCluster<Stack>::crashed(int process) const {
  return process < n() && replica(process).crashed();  // clients never crash
}

template <class Stack>
void StackCluster<Stack>::restart(int i) {
  sim_.restart(ProcessId(i),
               std::make_unique<Replica>(model_, replica_config_));
}

template <class Stack>
bool StackCluster<Stack>::recovering([[maybe_unused]] int process) const {
  if constexpr (requires(const Replica& r) { Stack::recovering(r); }) {
    if (process >= n()) return false;
    const Replica& r = replica(process);
    return !r.crashed() && Stack::recovering(r);
  } else {
    return false;
  }
}

template <class Stack>
std::vector<OperationId> StackCluster<Stack>::committed_op_ids_of(int i) {
  return op_ids(Stack::committed(replica(i)), *model_);
}

template <class Stack>
std::vector<OperationId> StackCluster<Stack>::durable_op_ids_of(int i) {
  if constexpr (requires(const Replica& r) { Stack::stored(r); }) {
    return op_ids(Stack::stored(replica(i)), *model_);
  } else {
    return committed_op_ids_of(i);
  }
}

template <class Stack>
std::vector<core::ClockSkewGuard::Transition>
StackCluster<Stack>::guard_transitions_of([[maybe_unused]] int i) {
  if constexpr (requires(const Replica& r) { r.clock_guard(); }) {
    return replica(i).clock_guard().transitions();
  } else {
    return {};
  }
}

template <class Stack>
int StackCluster<Stack>::leader() {
  int found = -1;
  for (int i = 0; i < config_.n; ++i) {
    Replica& r = replica(i);
    if (r.crashed() || !r.is_leader()) continue;
    // With epochs the newest one wins; without, there is one leader.
    if constexpr (requires(const Replica& x) { Stack::epoch(x); }) {
      if (found < 0 || Stack::epoch(r) > Stack::epoch(replica(found))) {
        found = i;
      }
    } else {
      return i;
    }
  }
  return found;
}

template <class Stack>
bool StackCluster<Stack>::await_quiesce(Duration timeout) {
  const RealTime deadline = sim_.now() + timeout;
  return sim_.run_until([this] { return completed_ == submitted_; }, deadline);
}

template <class Stack>
std::vector<std::string> StackCluster<Stack>::protocol_invariants() {
  std::vector<LiveReplica<decltype(Stack::committed(replica(0)))>> live;
  live.reserve(static_cast<std::size_t>(config_.n));
  for (int i = 0; i < config_.n; ++i) {
    Replica& r = replica(i);
    if (r.crashed()) continue;
    std::optional<std::int64_t> epoch;
    if constexpr (requires { Stack::epoch(r); }) epoch = Stack::epoch(r);
    live.push_back({i, r.is_leader(), epoch, Stack::committed(r)});
  }
  return safety_violations(protocol_, live);
}

template <class Stack>
std::int64_t StackCluster<Stack>::leadership_changes() {
  std::int64_t total = 0;
  for (int i = 0; i < config_.n; ++i) {
    total += replica(i).metrics().value("became_leader");
  }
  return total;
}

template <class Stack>
void StackCluster<Stack>::merge_metrics_into(metrics::Registry& out) {
  // Every process, replicas and clients alike (clients never sync, so their
  // storage adds nothing).
  for (int i = 0; i < sim_.n(); ++i) {
    out.merge_from(sim_.process(ProcessId(i)).metrics());
    // Storage lives beside the process (it survives incarnations), so its
    // counters are merged here rather than in the process registry.
    const sim::StableStorage& storage = sim_.storage(ProcessId(i));
    out.add("fsyncs", storage.fsyncs());
    out.add("sync_stall_us", storage.sync_stall_us());
    // Batch sizes of completed flushes: how wide group commit actually ran.
    metrics::Histogram& widths = out.histogram("storage.flush_width");
    for (const auto& [width, count] : storage.flush_widths()) {
      for (std::int64_t c = 0; c < count; ++c) {
        widths.record(static_cast<std::int64_t>(width));
      }
    }
  }
}

template class StackCluster<ChtreadStack>;
template class StackCluster<RaftStack>;
template class StackCluster<VrStack>;

}  // namespace cht::harness
