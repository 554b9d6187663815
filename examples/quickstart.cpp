// Quickstart: a 5-process replicated register with local reads.
//
// Builds a simulated cluster, waits for a leader, performs a write and
// reads from every replica, and prints what happened — including the
// message counts that show reads are local (they generate no messages).
#include <iostream>
#include <memory>

#include "harness/cluster.h"
#include "object/register_object.h"

int main() {
  using namespace cht;  // NOLINT: example brevity

  harness::ClusterConfig config;
  config.n = 5;
  config.delta = Duration::millis(10);     // post-GST message delay bound
  config.epsilon = Duration::millis(1);    // clock skew bound
  config.gst = RealTime::zero();           // stable from the start

  harness::Cluster cluster(config, std::make_shared<object::RegisterObject>());

  if (!cluster.await_steady_leader(Duration::seconds(5))) {
    std::cerr << "no leader elected\n";
    return 1;
  }
  std::cout << "steady leader: p" << cluster.steady_leader() << " after "
            << cluster.sim().now().to_millis_f() << " ms\n";

  // Write through a follower; the request is forwarded to the leader, which
  // batches and commits it via the majority protocol.
  cluster.submit(1, object::RegisterObject::write("hello, replicated world"));
  cluster.await_quiesce(Duration::seconds(5));
  std::cout << "write committed at " << cluster.sim().now().to_millis_f()
            << " ms\n";

  // Give the lease mechanism one renewal so every replica can serve the new
  // value locally, then read at every process.
  cluster.run_for(cluster.replica_config().lease_renew_interval * 2);
  const auto msgs_before = cluster.sim().network().stats().sent;
  for (int i = 0; i < cluster.n(); ++i) {
    cluster.submit(i, object::RegisterObject::read());
  }
  cluster.await_quiesce(Duration::seconds(5));
  const auto msgs_after = cluster.sim().network().stats().sent;

  for (const auto& op : cluster.history().ops()) {
    if (cluster.model().is_read(op.op)) {
      std::cout << "  " << op.process << " read -> \"" << *op.response
                << "\" in " << op.latency().to_micros() << " us\n";
    }
  }
  std::cout << "messages sent during the 5 reads (protocol background "
               "traffic only): "
            << msgs_after - msgs_before << "\n";
  std::cout << "reads completed locally: none of them generated messages.\n";
  return 0;
}
