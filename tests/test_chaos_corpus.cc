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
      {"vr", "leader-hunter", "kv", 2, "66665626572448bc",
       "vr state-transfer truncation bug"},
      {"vr", "leader-hunter", "kv", 5, "843102799184281c",
       "vr state-transfer truncation bug"},
      {"vr", "leader-hunter", "kv", 8, "afc3658a5d87889c",
       "vr state-transfer truncation bug"},
      // Same root cause surfaced through a different fault mix.
      {"vr", "clock-storm", "kv", 6, "8804a0d65113af2a",
       "vr state-transfer truncation bug"},
      {"vr", "clock-storm", "kv", 9, "37c33cabbc580143",
       "vr state-transfer truncation bug"},
      // Exposed two raft-lease read bugs at once: the lease anchored at ack
      // *receive* time (overestimates by the reply flight time) and missing
      // leader stickiness (a partitioned node's vote request deposed the
      // leader inside its own lease window). A deposed-but-leased leader
      // served a stale read.
      {"raft-lease", "rolling-partitions", "kv", 144, "fffa5b01fe19b291",
       "raft-lease anchor + stickiness stale read"},
      // High-churn seeds (many leadership changes) for the remaining stacks,
      // picked from sweep metrics: eventful but historically clean.
      {"chtread", "leader-hunter", "bank", 7, "883355a86d5b4198",
       "high-churn coverage"},
      {"chtread", "rolling-partitions", "queue", 17, "09b7ce17545ad6a2",
       "high-churn coverage"},
      {"raft", "leader-hunter", "counter", 11, "9994ff7f5d3dd90b",
       "high-churn coverage"},
      {"raft", "rolling-partitions", "lock", 29, "2206504de281cfa8",
       "high-churn coverage"},
      // Exposed the recovering-counts-as-down bug: the nemesis crash budget
      // counted only crashed processes, so rolling bounces pushed a majority
      // of VR replicas into the recovering state simultaneously — a
      // permanent deadlock under VR Revisited sec. 4.3's failure assumption
      // (recovery needs a majority of *normal* replicas to answer). Fixed by
      // ClusterAdapter::recovering() + Nemesis::down_now().
      {"vr", "power-cycle", "kv", 4, "9e057e4d427cd233",
       "vr recovering-counts-as-down deadlock"},
      // Restart-heavy coverage for the storage-replay recovery paths: every
      // stack through the power-cycle profile, exercising unsynced-write
      // loss, log tearing and the durability invariant on each run.
      {"chtread", "power-cycle", "kv", 3, "2263e016ab9cac70",
       "power-cycle recovery coverage"},
      {"raft", "power-cycle", "bank", 5, "de831da9c550a626",
       "power-cycle recovery coverage"},
      {"raft-lease", "power-cycle", "counter", 9, "0e1976310a33e836",
       "power-cycle recovery coverage"},
      {"vr", "power-cycle", "queue", 12, "3bd336add28ac861",
       "power-cycle recovery coverage"},
      // Key-loss boundary pins, one eventful seed per extreme. 1.0 is the
      // failing-shaped disk: every unsynced write (promise, estimate, log
      // batch, ELS counter) dies with the crash, so any ack that left before
      // its covering sync would surface here as a durability violation. 0.0
      // is the opposite trap: state the replica never acked comes back.
      {"chtread", "power-cycle", "kv", 14, "ae82249e6490258e",
       "key-loss=1.0 boundary pin", 1.0},
      {"raft", "power-cycle", "kv", 15, "3fa946d4c527a62a",
       "key-loss=0.0 boundary pin", 0.0},
      // Crash-loop coverage: the same victim bounced repeatedly with
      // downtimes shorter than recovery, stressing incarnation-namespaced
      // OperationIds and mid-recovery re-crash handling.
      {"chtread", "crash-loop", "kv", 6, "c761d27e98456cdf",
       "crash-loop incarnation churn"},
      {"vr", "crash-loop", "counter", 8, "8a001317c4d6539b",
       "crash-loop mid-recovery re-crash"},
      // Client-path pins: operations travel through networked client
      // sessions, so retries, Redirect-chasing and replica-side dedup are
      // under the nemesis and the exactly-once invariant is live. Seeds
      // picked from sweep metrics as eventful-but-clean: the raft cell
      // retries 55 times across 145 redirects (leader churn mid-request);
      // the chtread cell rebuilds session tables through four crash-loop
      // recoveries; the vr cell answers two retried RMWs from the session
      // cache across power cycles — a double-apply would show up as a wrong
      // counter value.
      {"raft", "leader-hunter", "kv", 7, "bca7d9c03556b94b",
       "client retry/redirect churn", 0.5, true},
      {"chtread", "crash-loop", "kv", 3, "ae659504aee7c51d",
       "session-table rebuild through crash loops", 0.5, true},
      {"vr", "power-cycle", "counter", 6, "a7ffc6b6763881ea",
       "session dedup across power cycles", 0.5, true},
      // Skew-boundary pins for the clock-health guard. The guard-on cells
      // are checked with full linearizability under exposure-window
      // accounting (any stale read outside the injection..heal+drain window
      // fails the run); the guard-off twin of the first cell pins the legacy
      // RMW-sub-history accounting on the *same schedule*, so a behaviour
      // drift between the two modes shows up as exactly one cell flipping.
      {"chtread", "clock-storm", "kv", 21, "82c69c6e9dd79fba",
       "guard-on exposure-window accounting pin"},
      {"chtread", "clock-storm", "kv", 21, "44a2c83133ab7462",
       "guard-off legacy stale-read accounting pin", 0.5, false, false},
      {"raft-lease", "degraded-reads", "kv", 5, "322ad07953591581",
       "lease demotion to ReadIndex under pure-skew nemesis"},
      // Each served a stale read from a leader whose term had not yet
      // committed an entry (Raft thesis sec. 6.4): a new leader's commit
      // index can lag entries its predecessor committed, and a restarted
      // one starts at 0. Reads now wait for the term's no-op to commit.
      {"raft-lease", "power-cycle", "kv", 203, "4ad6fddff98d5ecd",
       "raft read before the leader's term committed", 0.5, true, true, 80},
      {"raft-lease", "rolling-partitions", "kv", 374, "9005bcf9d56179e8",
       "raft read before the leader's term committed", 0.5, true, true, 80},
      {"raft-lease", "leader-hunter", "kv", 41, "732c7c43a63a2038",
       "raft read before the leader's term committed", 0.5, false, true, 80},
      {"raft-lease", "power-cycle", "kv", 1196, "5f547cc0d2dbedd3",
       "raft read before the leader's term committed", 0.5, true, true, 80},
      {"raft", "power-cycle", "kv", 5404, "209843b4dde6ce97",
       "raft read before the leader's term committed", 0.5, true, true, 80},
      // Each aborted on "StartView log shorter than applied prefix": a
      // replica that had joined view v through GetState/NewState adopted a
      // late StartView(v) whose log was shorter than its own. A replica
      // already normal in view v now ignores StartView(v).
      {"vr", "leader-hunter", "kv", 66, "826fea75fdf39bd0",
       "vr same-view StartView replaced a longer log", 0.5, true, true, 80},
      {"vr", "crash-loop", "kv", 307, "e030d1d1142cad0c",
       "vr same-view StartView replaced a longer log", 0.5, true, true, 80},
      {"vr", "rolling-partitions", "kv", 330, "ea2789f118c01f25",
       "vr same-view StartView replaced a longer log", 0.5, true, true, 80},
      {"vr", "clock-storm", "kv", 382, "a3c2a71e9d96355e",
       "vr same-view StartView replaced a longer log", 0.5, true, true, 80},
      {"vr", "leader-hunter", "kv", 16, "28dc0e362f10e9cf",
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
