// Pinned seed corpus: chaos runs that once exposed real protocol bugs, or
// that are unusually eventful, replayed on every ctest run as regression
// guards. Each entry records why it earned its place; if one of these cells
// regresses, `chtread_fuzz --protocol=<p> --profile=<f> --object=<o>
// --seed-start=<s> --seeds=1 --artifact-dir=...` reproduces it exactly.
//
// The corpus also doubles as a determinism regression: every entry is run
// twice and must produce bit-identical fingerprints, which is the property
// the whole repro workflow rests on. The first run must also match the
// entry's pinned fingerprint, so behaviour drift across commits fails here
// rather than hiding in two equal runs of one build.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "chaos/spec.h"
#include "chaos/sweep.h"

namespace cht::chaos {
namespace {

struct CorpusEntry {
  std::string protocol;
  std::string profile;
  std::string object;
  std::uint64_t seed;
  // The cell's pinned fingerprint. A behaviour-preserving change keeps every
  // pin byte-identical; a change that moves one says why and re-pins it.
  const char* fingerprint;
  const char* why;
  // Unsynced-write loss probability for power cycles; 0.5 is the sweep
  // default, 0.0/1.0 pin the boundary disks.
  double key_loss = 0.5;
  // Whether operations route through networked client sessions (retries,
  // redirects, replica-side dedup) or the legacy direct-submit path. The
  // pre-client pins stay on the legacy path to preserve the schedules that
  // earned them their place; client-path pins exercise the session machinery
  // and the exactly-once invariant.
  bool client_path = false;
  // Clock-health guard (core/clock_guard.h). On (the sweep default) a
  // skew-allowing profile is checked with full linearizability plus
  // exposure-window excusing; off restores the legacy RMW-sub-history
  // accounting that blanket-tolerates stale reads.
  bool clock_guard = true;
  // Workload length. 40 keeps the older pins fast; pins of seeds found by
  // the nightly sweep run its default length, where they failed.
  int ops = 40;
};

// How gtest names a cell, e.g. when its pin drifts: the chtread_fuzz flags
// that replay it, then why it is pinned.
void PrintTo(const CorpusEntry& entry, std::ostream* os) {
  *os << "--protocol=" << entry.protocol << " --profile=" << entry.profile
      << " --object=" << entry.object << " --seed-start=" << entry.seed
      << " --seeds=1 --ops=" << entry.ops << " --key-loss=" << entry.key_loss
      << " --client-path=" << entry.client_path
      << " --clock-guard=" << entry.clock_guard << " (" << entry.why << ")";
}

const std::vector<CorpusEntry>& corpus() {
  static const std::vector<CorpusEntry> entries{
      // These three exposed the missing uncommitted-tail truncation on
      // view-crossing state transfer in vr.cc (VR Revisited Section 5.2):
      // committed-prefix divergence plus stale reads from a deposed primary.
      {"vr", "leader-hunter", "kv", 2, "a0f4a7f3c2ada26b",
       "vr state-transfer truncation bug"},
      {"vr", "leader-hunter", "kv", 5, "bf234f96d388d5ee",
       "vr state-transfer truncation bug"},
      {"vr", "leader-hunter", "kv", 8, "ce8e83db25ef0614",
       "vr state-transfer truncation bug"},
      // Same root cause surfaced through a different fault mix.
      {"vr", "clock-storm", "kv", 6, "375b24cf2c735a2d",
       "vr state-transfer truncation bug"},
      {"vr", "clock-storm", "kv", 9, "d8abf083d3f1a380",
       "vr state-transfer truncation bug"},
      // Exposed two raft-lease read bugs at once: the lease anchored at ack
      // *receive* time (overestimates by the reply flight time) and missing
      // leader stickiness (a partitioned node's vote request deposed the
      // leader inside its own lease window). A deposed-but-leased leader
      // served a stale read.
      {"raft-lease", "rolling-partitions", "kv", 144, "08fbf3a1457f1fc2",
       "raft-lease anchor + stickiness stale read"},
      // High-churn seeds (many leadership changes) for the remaining stacks,
      // picked from sweep metrics: eventful but historically clean.
      {"chtread", "leader-hunter", "bank", 7, "8384f5fc70f2501b",
       "high-churn coverage"},
      {"chtread", "rolling-partitions", "queue", 17, "a1e7dbb8c7a67785",
       "high-churn coverage"},
      {"raft", "leader-hunter", "counter", 11, "6731c449ebee2bec",
       "high-churn coverage"},
      {"raft", "rolling-partitions", "lock", 29, "097992318b039303",
       "high-churn coverage"},
      // Exposed the recovering-counts-as-down bug: the nemesis crash budget
      // counted only crashed processes, so rolling bounces pushed a majority
      // of VR replicas into the recovering state simultaneously — a
      // permanent deadlock under VR Revisited sec. 4.3's failure assumption
      // (recovery needs a majority of *normal* replicas to answer). Fixed by
      // ClusterAdapter::recovering() + Nemesis::down_now().
      {"vr", "power-cycle", "kv", 4, "bff96adb0902b693",
       "vr recovering-counts-as-down deadlock"},
      // Restart-heavy coverage for the storage-replay recovery paths: every
      // stack through the power-cycle profile, exercising unsynced-write
      // loss, log tearing and the durability invariant on each run.
      {"chtread", "power-cycle", "kv", 3, "ab273a7c2335f869",
       "power-cycle recovery coverage"},
      {"raft", "power-cycle", "bank", 5, "9e34a655be312eec",
       "power-cycle recovery coverage"},
      {"raft-lease", "power-cycle", "counter", 9, "f7aa7ba9630ca7d5",
       "power-cycle recovery coverage"},
      {"vr", "power-cycle", "queue", 12, "94a0b926a3eeada9",
       "power-cycle recovery coverage"},
      // Key-loss boundary pins, one eventful seed per extreme. 1.0 is the
      // failing-shaped disk: every unsynced write (promise, estimate, log
      // batch, ELS counter) dies with the crash, so any ack that left before
      // its covering sync would surface here as a durability violation. 0.0
      // is the opposite trap: state the replica never acked comes back.
      {"chtread", "power-cycle", "kv", 14, "a0c2b0fa688f9c18",
       "key-loss=1.0 boundary pin", 1.0},
      {"raft", "power-cycle", "kv", 15, "9b0ff57ccc7e5fe2",
       "key-loss=0.0 boundary pin", 0.0},
      // Crash-loop coverage: the same victim bounced repeatedly with
      // downtimes shorter than recovery, stressing incarnation-namespaced
      // OperationIds and mid-recovery re-crash handling.
      {"chtread", "crash-loop", "kv", 6, "b6f6d04e9c53539e",
       "crash-loop incarnation churn"},
      {"vr", "crash-loop", "counter", 8, "9a068c3b387ccc30",
       "crash-loop mid-recovery re-crash"},
      // Client-path pins: operations travel through networked client
      // sessions, so retries, Redirect-chasing and replica-side dedup are
      // under the nemesis and the exactly-once invariant is live. Seeds
      // picked from sweep metrics as eventful-but-clean: the raft cell
      // retries 62 times across 118 redirects (leader churn mid-request,
      // including a deduplicated duplicate reply); the chtread cell rebuilds
      // session tables through four crash-loop recoveries; the vr cell
      // answers three retried RMWs from the session cache across power
      // cycles — a double-apply would show up as a wrong counter value.
      {"raft", "leader-hunter", "kv", 7, "351a4c9d0f72e2d4",
       "client retry/redirect churn", 0.5, true},
      {"chtread", "crash-loop", "kv", 3, "95eb56d136f6b163",
       "session-table rebuild through crash loops", 0.5, true},
      {"vr", "power-cycle", "counter", 6, "0843f0fc82adcc92",
       "session dedup across power cycles", 0.5, true},
      // Skew-boundary pins for the clock-health guard. The guard-on cells
      // are checked with full linearizability under exposure-window
      // accounting (any stale read outside the injection..heal+drain window
      // fails the run); the guard-off twin of the first cell pins the legacy
      // RMW-sub-history accounting on the *same schedule*, so a behaviour
      // drift between the two modes shows up as exactly one cell flipping.
      {"chtread", "clock-storm", "kv", 21, "f5cca7d36caa9f62",
       "guard-on exposure-window accounting pin"},
      {"chtread", "clock-storm", "kv", 21, "fe442d016cd58a75",
       "guard-off legacy stale-read accounting pin", 0.5, false, false},
      {"raft-lease", "degraded-reads", "kv", 5, "2dc61b3e469af4fd",
       "lease demotion to ReadIndex under pure-skew nemesis"},
      // Each served a stale read from a leader whose term had not yet
      // committed an entry (Raft thesis sec. 6.4): a new leader's commit
      // index can lag entries its predecessor committed, and a restarted
      // one starts at 0. Reads now wait for the term's no-op to commit.
      {"raft-lease", "power-cycle", "kv", 203, "aca70df8ca865cc4",
       "raft read before the leader's term committed", 0.5, true, true, 80},
      {"raft-lease", "rolling-partitions", "kv", 374, "697801057784ebee",
       "raft read before the leader's term committed", 0.5, true, true, 80},
      {"raft-lease", "leader-hunter", "kv", 41, "ac83e529f92a9a34",
       "raft read before the leader's term committed", 0.5, false, true, 80},
      {"raft-lease", "power-cycle", "kv", 1196, "8602fbecb438b59a",
       "raft read before the leader's term committed", 0.5, true, true, 80},
      {"raft", "power-cycle", "kv", 5404, "a48e1695dd97d7ba",
       "raft read before the leader's term committed", 0.5, true, true, 80},
      // Each aborted on "StartView log shorter than applied prefix": a
      // replica that had joined view v through GetState/NewState adopted a
      // late StartView(v) whose log was shorter than its own. A replica
      // already normal in view v now ignores StartView(v).
      {"vr", "leader-hunter", "kv", 66, "e1e680332e79afe4",
       "vr same-view StartView replaced a longer log", 0.5, true, true, 80},
      {"vr", "crash-loop", "kv", 307, "f7389999b0fe195f",
       "vr same-view StartView replaced a longer log", 0.5, true, true, 80},
      {"vr", "rolling-partitions", "kv", 330, "e2441c81d717a86f",
       "vr same-view StartView replaced a longer log", 0.5, true, true, 80},
      {"vr", "clock-storm", "kv", 382, "ed4e1dde7628e540",
       "vr same-view StartView replaced a longer log", 0.5, true, true, 80},
      {"vr", "leader-hunter", "kv", 16, "a84816119aa30937",
       "vr same-view StartView replaced a longer log", 0.5, false, true, 80},
  };
  return entries;
}

class ChaosCorpusTest : public ::testing::TestWithParam<CorpusEntry> {};

TEST_P(ChaosCorpusTest, PinnedSeedStaysClean) {
  const CorpusEntry& entry = GetParam();
  RunSpec spec;
  spec.protocol = entry.protocol;
  spec.profile = entry.profile;
  spec.object = entry.object;
  spec.seed = entry.seed;
  spec.ops = entry.ops;
  spec.unsynced_key_loss = entry.key_loss;
  spec.client_path = entry.client_path;
  spec.clock_guard = entry.clock_guard;

  const RunResult first = run_one(spec);
  EXPECT_EQ(first.fingerprint, entry.fingerprint)
      << entry.why << ": behaviour drifted from the pinned run";
  EXPECT_TRUE(first.checker_decided) << entry.why;
  std::string all;
  for (const auto& v : first.violations) all += "\n  " + v;
  EXPECT_TRUE(first.ok()) << entry.why << " regressed:" << all;
  EXPECT_GT(first.completed, 0u);

  // Bit-identical replay: the exact property `chtread_fuzz --repro` checks.
  const RunResult second = run_one(spec);
  EXPECT_EQ(first.fingerprint, second.fingerprint)
      << "determinism broke: same spec, different fingerprint";
}

std::string entry_name(const ::testing::TestParamInfo<CorpusEntry>& info) {
  std::string name = info.param.protocol + "_" + info.param.profile + "_" +
                     info.param.object + "_seed" +
                     std::to_string(info.param.seed);
  if (info.param.client_path) name += "_client";
  if (!info.param.clock_guard) name += "_noguard";
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ChaosCorpusTest,
                         ::testing::ValuesIn(corpus()), entry_name);

}  // namespace
}  // namespace cht::chaos
