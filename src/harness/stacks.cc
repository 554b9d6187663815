#include "harness/stacks.h"

namespace cht::harness {

core::Config ChtreadStack::make_config(const ClusterConfig& cluster,
                                       const Options& options) {
  core::Config config =
      core::Config::defaults_for(cluster.delta, cluster.epsilon);
  config.clock_guard.enabled = cluster.clock_guard;
  options.apply(config);
  return config;
}

raft::RaftConfig RaftStack::make_config(const ClusterConfig& cluster,
                                        Options mode) {
  raft::RaftConfig config = raft::RaftConfig::defaults_for(cluster.delta);
  config.read_mode = mode;
  config.clock_guard = {.enabled = cluster.clock_guard,
                        .delta = cluster.delta,
                        .epsilon = cluster.epsilon};
  return config;
}

}  // namespace cht::harness
