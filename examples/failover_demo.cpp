// Failover walkthrough: watch a new leader initialize after a crash.
//
// Narrates the timeline of the paper's Section 3 leader initialization:
// crash detection (Omega), estimate collection, recovery of the half-done
// batch, the liveness NoOp, and the return of read availability.
#include <iostream>
#include <memory>

#include "harness/cluster.h"
#include "object/kv_object.h"

int main() {
  using namespace cht;  // NOLINT: example brevity

  harness::ClusterConfig config;
  config.n = 5;
  config.seed = 3;
  config.delta = Duration::millis(10);
  harness::Cluster cluster(config, std::make_shared<object::KVObject>());

  auto stamp = [&] {
    std::cout << "[t=" << cluster.sim().now().to_millis_f() << " ms] ";
  };

  cluster.await_steady_leader(Duration::seconds(5));
  const int leader1 = cluster.steady_leader();
  stamp();
  std::cout << "p" << leader1 << " is the steady leader\n";

  cluster.submit(1, object::KVObject::put("inventory", "42"));
  cluster.await_quiesce(Duration::seconds(5));
  stamp();
  std::cout << "put(inventory, 42) committed (batch "
            << cluster.replica(leader1).applied_upto() << ")\n";

  // Submit a write and kill the leader while it is being prepared.
  cluster.submit(2, object::KVObject::put("inventory", "41"));
  cluster.run_for(Duration::millis(3));
  cluster.sim().crash(ProcessId(leader1));
  stamp();
  std::cout << "p" << leader1
            << " CRASHED with put(inventory, 41) in flight (half-done batch)\n";

  int leader2 = -1;
  cluster.sim().run_until(
      [&] {
        leader2 = cluster.steady_leader();
        return leader2 >= 0 && leader2 != leader1;
      },
      cluster.sim().now() + Duration::seconds(30));
  stamp();
  std::cout << "p" << leader2 << " became leader (Omega detected the crash,\n"
            << "              collected estimates from a majority, recovered\n"
            << "              missing batches, re-committed the half-done\n"
            << "              batch, and committed its liveness NoOp)\n";

  cluster.await_quiesce(Duration::seconds(30));
  stamp();
  std::cout << "the in-flight write completed under the new leader\n";

  // Show reads are served locally everywhere again.
  cluster.run_for(cluster.replica_config().lease_renew_interval * 3);
  for (int p = 0; p < cluster.n(); ++p) {
    if (cluster.replica(p).crashed()) continue;
    cluster.submit(p, object::KVObject::get("inventory"));
  }
  cluster.await_quiesce(Duration::seconds(10));
  stamp();
  std::cout << "all survivors answered get(inventory) locally:\n";
  for (const auto& op : cluster.history().ops()) {
    if (op.completed() && op.op.kind == "get") {
      std::cout << "    " << op.process << " -> " << *op.response << " (in "
                << op.latency().to_micros() << " us)\n";
    }
  }

  const auto& metrics = cluster.replica(leader2).metrics();
  std::cout << "\nnew leader committed "
            << metrics.value("batches_committed_as_leader")
            << " batches since taking over; became leader "
            << metrics.value("became_leader") << "x\n";
  return 0;
}
