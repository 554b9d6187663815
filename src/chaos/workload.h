// Workload generator: mixed read/RMW operation streams over every object
// model in the repo (KV, counter, bank, queue, lock), with a tunable read
// fraction and geometric key skew. Deterministic given its seed, and
// independent of the nemesis and driver streams, so fault schedules and
// workloads can be varied independently without perturbing each other.
#pragma once

#include <cstdint>
#include <string>

#include "chaos/spec.h"
#include "common/rng.h"
#include "object/object.h"

namespace cht::chaos {

class WorkloadGen {
 public:
  WorkloadGen(const RunSpec& spec, std::uint64_t seed);

  // The next operation in the stream: a read with probability
  // spec.read_fraction, otherwise a model-appropriate RMW. Values carry a
  // unique sequence number so every written value is distinguishable (the
  // linearizability checker needs distinct writes to detect reordering).
  object::Operation next();

 private:
  std::string pick_key();

  // Keys k0..k3: few enough that operations contend.
  static constexpr int kKeys = 4;

  std::string object_;
  double read_fraction_;
  double key_skew_;
  Rng rng_;
  std::int64_t seq_ = 0;
};

}  // namespace cht::chaos
