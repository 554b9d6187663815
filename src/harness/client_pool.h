// Shared harness plumbing for networked clients: adds the configured number
// of client::Client processes to a simulation (after the replicas, so they
// never enter quorum math — see Simulation::add_client) and exposes the
// deterministic replica-slot -> client mapping the cluster submit paths use.
#pragma once

#include <memory>

#include "client/client.h"
#include "harness/cluster_config.h"
#include "metrics/registry.h"
#include "sim/simulation.h"

namespace cht::harness {

class ClientPool {
 public:
  explicit ClientPool(sim::Simulation& sim) : sim_(sim) {}

  // Adds the clients. Must run after every add_process and before
  // sim.start(). Client j's home replica is j % n, spreading the local-read
  // fast path across the cluster.
  void populate(const ClusterConfig& config) {
    replicas_ = config.n;
    clients_ = config.clients;
    for (int j = 0; j < clients_; ++j) {
      sim_.add_client(std::make_unique<client::Client>(
          j % replicas_, client::ClientConfig::defaults_for(config.delta)));
    }
  }

  bool enabled() const { return clients_ > 0; }
  int size() const { return clients_; }

  client::Client& client(int j) {
    return sim_.process_as<client::Client>(ProcessId(replicas_ + j));
  }

  // The client that carries operations nominally addressed at replica slot
  // i (harness submit(i, ...) keeps its signature when clients are on).
  client::Client& for_slot(int i) { return client(i % clients_); }

  void merge_metrics_into(metrics::Registry& out) {
    for (int j = 0; j < clients_; ++j) out.merge_from(client(j).metrics());
  }

 private:
  sim::Simulation& sim_;
  int replicas_ = 0;
  int clients_ = 0;
};

}  // namespace cht::harness
