// Cluster knobs shared by every stack (chtread, Raft in both read modes,
// VR). Exactly one place derives a sim::SimulationConfig from them, so a new
// knob (or a changed derivation like delta_min) cannot drift between stacks.
// chaos::make_adapter builds one from a RunSpec (chaos/adapter.cc).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/time.h"
#include "sim/simulation.h"

namespace cht::harness {

struct ClusterConfig {
  int n = 5;
  std::uint64_t seed = 1;
  Duration delta = Duration::millis(10);
  Duration epsilon = Duration::millis(1);
  // Real time at which the system stabilizes (0 = synchronous from start).
  RealTime gst = RealTime::zero();
  double pre_gst_loss = 0.05;
  Duration pre_gst_delay_max = Duration::millis(200);
  // Stable-storage model (fsync latency, crash-time loss, group commit).
  sim::StorageConfig storage;
  // Networked clients (src/client/). 0 = legacy colocated submission (ops
  // are injected directly at replica i); > 0 = the harness adds this many
  // client::Client processes after the replicas and routes every submitted
  // operation through one of them, so requests cross the simulated network
  // and retries/redirects/session dedup are on the path.
  int clients = 0;
  // Clock-health guard (core/clock_guard.h): when true, replicas detect
  // broken epsilon-synchrony from message stamps and degrade lease reads to
  // a clock-free path while suspect. Off reproduces the assume-synchrony
  // behaviour (and is what legacy repro artifacts replay with).
  bool clock_guard = true;

  sim::SimulationConfig to_sim_config() const {
    sim::SimulationConfig sc;
    sc.seed = seed;
    sc.epsilon = epsilon;
    sc.storage = storage;
    sc.network.gst = gst;
    sc.network.delta = delta;
    sc.network.delta_min = Duration::micros(
        std::max<std::int64_t>(1, delta.to_micros() / 20));
    sc.network.pre_gst_loss_probability = pre_gst_loss;
    sc.network.pre_gst_delay_max = pre_gst_delay_max;
    return sc;
  }
};

}  // namespace cht::harness
