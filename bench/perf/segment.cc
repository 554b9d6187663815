#include "segment.h"

#include <algorithm>
#include <cmath>

namespace cht::perf {
namespace {

// The arrival stream's seed is the cluster seed mixed with a tag, so the
// schedule and the cluster's own randomness stay independent.
constexpr std::uint64_t kLoadStream = 0x6c6f6164;  // "load"
constexpr Duration kLeaderWait = Duration::seconds(30);
constexpr Duration kDrainLimit = Duration::seconds(60);
constexpr Duration kFirstCrash = Duration::seconds(4);
constexpr Duration kCrashEvery = Duration::seconds(10);
constexpr Duration kRestartAfter = Duration::seconds(2);
constexpr Duration kGapWindow = Duration::seconds(5);

harness::ClusterConfig config_for(const Shape& shape, std::uint64_t seed) {
  harness::ClusterConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  config.epsilon = Duration::millis(1);
  config.storage.sync_latency = Duration::millis(5);
  config.storage.group_commit = true;
  config.clients = shape.clients;
  return config;
}

}  // namespace

Segment::Segment(const Shape& shape, std::uint64_t seed, int index,
                 Tracer& tracer)
    : shape_(shape),
      seed_(seed),
      index_(index),
      tracer_(tracer),
      rng_(seed ^ kLoadStream),
      delivery_(tracer, kCore) {
  keys_.reserve(static_cast<std::size_t>(shape.keys));
  for (int k = 0; k < shape.keys; ++k) keys_.push_back(std::to_string(k));
  requests_.reserve(static_cast<std::size_t>(
      shape.rate * shape.length.to_seconds_f() * 1.2 + 64));
}

bool Segment::setup() {
  const std::int64_t t0 = wall_ns();
  {
    ScopedSpan span(tracer_, "cluster.build", index_);
    cluster_ = std::make_unique<harness::Cluster>(
        config_for(shape_, seed_), std::make_shared<object::KVObject>());
  }
  build_s_ = static_cast<double>(wall_ns() - t0) / 1e9;
  if (tracer_.on()) delivery_.install(cluster_->sim());
  std::int64_t events = 0;
  bool led = false;
  {
    ScopedSpan span(tracer_, "await_steady_leader", index_);
    sim::Simulation& sim = cluster_->sim();
    led = drain(sim, sim.now() + kLeaderWait, tracer_, events,
                [this] { return cluster_->steady_leader() >= 0; });
  }
  setup_s_ = static_cast<double>(wall_ns() - t0) / 1e9;
  return led;
}

void Segment::run() {
  sim::Simulation& sim = cluster_->sim();
  const int n = cluster_->n();
  const NetCounts net0 = NetCounts::of(sim.network().stats());
  const StorageCounts storage0 = StorageCounts::of(sim, n);
  const RealTime start = sim.now();
  load_end_ = start + shape_.length;
  sim.at(start, [this] { arrive(); });
  if (shape_.failover) {
    for (RealTime at = start + kFirstCrash; at < load_end_; at = at + kCrashEvery) {
      sim.at(at, [this] { crash_leader(); });
    }
  }

  const std::uint64_t allocs0 = allocations();
  const std::int64_t t0 = wall_ns();
  std::int64_t events = 0;
  {
    ScopedSpan span(tracer_, "load", index_);
    drain(sim, load_end_, tracer_, events, [] { return false; });
  }
  {
    ScopedSpan span(tracer_, "drain", index_);
    drain(sim, load_end_ + kDrainLimit, tracer_, events,
          [this] { return completed_ == requests_.size(); });
  }
  run_s_ = static_cast<double>(wall_ns() - t0) / 1e9;
  counts_.allocs = allocations() - allocs0;

  counts_.events = events;
  counts_.net = NetCounts::of(sim.network().stats());
  counts_.net -= net0;
  counts_.storage = StorageCounts::of(sim, n);
  counts_.storage -= storage0;
  counts_.ops = static_cast<std::int64_t>(completed_);
  counts_.rmws = std::count_if(
      requests_.begin(), requests_.end(),
      [](const Request& r) { return r.completed && !r.read; });
}

void Segment::arrive() {
  sim::Simulation& sim = cluster_->sim();
  const RealTime due = sim.now();
  const bool read = rng_.next_bool(shape_.read_fraction);
  const auto key = static_cast<std::size_t>(
      rng_.next_below(static_cast<std::uint64_t>(shape_.keys)));
  const int client = static_cast<int>(
      rng_.next_below(static_cast<std::uint64_t>(shape_.clients)));
  const std::size_t id = requests_.size();
  requests_.push_back({due, RealTime::zero(), client, read, false});
  // Every put writes a distinct value, so each read names its write.
  object::Operation op = read ? object::KVObject::get(keys_[key])
                              : object::KVObject::put(keys_[key],
                                                      std::to_string(id));
  auto on_done = [this, id](const object::Response&) {
    requests_[id].done = cluster_->sim().now();
    requests_[id].completed = true;
    ++completed_;
  };
  if (tracer_.on()) {
    const std::int64_t t0 = wall_ns();
    cluster_->submit(client, std::move(op), std::move(on_done));
    tracer_.submit.add(wall_ns() - t0);
  } else {
    cluster_->submit(client, std::move(op), std::move(on_done));
  }
  // Poisson arrivals: exponential gaps at the shape's rate.
  const double gap_us =
      -std::log(1.0 - rng_.next_double()) * 1e6 / shape_.rate;
  const RealTime next = due + Duration::micros(std::llround(gap_us));
  if (next < load_end_) sim.at(next, [this] { arrive(); });
}

void Segment::crash_leader() {
  const int leader = cluster_->steady_leader();
  if (leader < 0) return;
  sim::Simulation& sim = cluster_->sim();
  crashes_.push_back(sim.now());
  sim.crash(ProcessId(leader));
  sim.after(kRestartAfter, [this, leader] { cluster_->restart(leader); });
}

std::vector<RealTime> Segment::dispatch_times() {
  const int n = cluster_->n();
  std::vector<std::vector<std::size_t>> by_client(
      static_cast<std::size_t>(shape_.clients));
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    by_client[static_cast<std::size_t>(requests_[i].client)].push_back(i);
  }
  std::vector<std::size_t> next(by_client.size(), 0);
  std::vector<RealTime> dispatched(requests_.size(), RealTime::max());
  for (const auto& op : cluster_->history().ops()) {
    const auto j = static_cast<std::size_t>(op.process.index() - n);
    if (next[j] < by_client[j].size()) {
      dispatched[by_client[j][next[j]++]] = op.invoked;
    }
  }
  return dispatched;
}

std::vector<double> Segment::failover_gaps_ms() const {
  std::vector<RealTime> done;
  for (const Request& r : requests_) {
    if (r.completed && !r.read) done.push_back(r.done);
  }
  std::sort(done.begin(), done.end());
  std::vector<double> gaps;
  for (const RealTime crash : crashes_) {
    const RealTime close = crash + kGapWindow;
    RealTime prev = crash;
    Duration longest = Duration::zero();
    auto it = std::upper_bound(done.begin(), done.end(), crash);
    for (; it != done.end() && *it <= close; ++it) {
      longest = std::max(longest, *it - prev);
      prev = *it;
    }
    longest = std::max(longest, close - prev);
    gaps.push_back(longest.to_millis_f());
  }
  return gaps;
}

}  // namespace cht::perf
