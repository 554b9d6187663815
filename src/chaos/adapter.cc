#include "chaos/adapter.h"

#include "common/assert.h"
#include "harness/cluster.h"
#include "object/bank_object.h"
#include "object/counter_object.h"
#include "object/kv_object.h"
#include "object/lock_object.h"
#include "object/queue_object.h"

namespace cht::chaos {
namespace {

harness::ClusterConfig cluster_config(const RunSpec& spec) {
  harness::ClusterConfig config;
  config.n = spec.n;
  config.seed = spec.seed;
  config.delta = spec.delta();
  config.epsilon = spec.epsilon();
  config.gst = spec.gst();
  config.pre_gst_loss = spec.pre_gst_loss;
  config.storage.sync_latency = Duration::micros(spec.sync_latency_us);
  config.storage.unsynced_key_loss = spec.unsynced_key_loss;
  config.storage.group_commit = spec.group_commit;
  // One networked client per replica slot: the driver's submit(i, op) then
  // maps 1:1 onto client i, whose home replica is i.
  config.clients = spec.client_path ? spec.n : 0;
  config.clock_guard = spec.clock_guard;
  return config;
}

}  // namespace

const std::vector<std::string>& known_protocols() {
  static const std::vector<std::string> kProtocols = {"chtread", "raft",
                                                      "raft-lease", "vr"};
  return kProtocols;
}

const std::vector<std::string>& known_objects() {
  static const std::vector<std::string> kObjects = {"kv", "counter", "bank",
                                                    "queue", "lock"};
  return kObjects;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): independent streams per component.
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::shared_ptr<const object::ObjectModel> make_object_model(
    const std::string& name) {
  if (name == "kv") return std::make_shared<object::KVObject>();
  if (name == "counter") return std::make_shared<object::CounterObject>();
  if (name == "bank") return std::make_shared<object::BankObject>();
  if (name == "queue") return std::make_shared<object::QueueObject>();
  if (name == "lock") return std::make_shared<object::LockObject>();
  CHT_ASSERT(false, "unknown object model");
  return nullptr;
}

std::unique_ptr<ClusterAdapter> make_adapter(const RunSpec& spec) {
  auto model = make_object_model(spec.object);
  const harness::ClusterConfig config = cluster_config(spec);
  if (spec.protocol == "chtread") {
    return std::make_unique<harness::Cluster>(config, std::move(model));
  }
  if (spec.protocol == "raft") {
    return std::make_unique<harness::RaftCluster>(
        config, std::move(model), raft::ReadMode::kReadIndex);
  }
  if (spec.protocol == "raft-lease") {
    return std::make_unique<harness::RaftCluster>(
        config, std::move(model), raft::ReadMode::kLeaderLease);
  }
  if (spec.protocol == "vr") {
    return std::make_unique<harness::VrCluster>(config, std::move(model));
  }
  CHT_ASSERT(false, "unknown protocol");
  return nullptr;
}

}  // namespace cht::chaos
