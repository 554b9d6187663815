// The chaos subsystem's entry to the protocol stacks: make_adapter builds
// the harness::StackCluster a RunSpec names. The nemesis, workload driver,
// seed sweeper and invariant registry see it only as a ClusterAdapter
// (harness/cluster_adapter.h), so a fault schedule or a safety check is
// authored once and exercises all four stacks identically.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "chaos/spec.h"
#include "harness/cluster_adapter.h"
#include "object/object.h"

namespace cht::chaos {

using ClusterAdapter = harness::ClusterAdapter;
using ForwardingAdapter = harness::ForwardingAdapter;

// Builds the adapter named by spec.protocol (see known_protocols()) over the
// object model named by spec.object. Asserts on unknown names.
std::unique_ptr<ClusterAdapter> make_adapter(const RunSpec& spec);

// Optional decorator applied to a freshly built adapter before a run; lets
// tests interpose on the submit path (see evil.h) without the chaos library
// linking any fault-injection-into-ourselves code.
using AdapterHook =
    std::function<std::unique_ptr<ClusterAdapter>(std::unique_ptr<ClusterAdapter>)>;

// Builds the ObjectModel named by spec.object (kv|counter|bank|queue|lock).
std::shared_ptr<const object::ObjectModel> make_object_model(
    const std::string& name);

}  // namespace cht::chaos
