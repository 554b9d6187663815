// Session-guarantee checks over operation histories.
//
// Linearizability of the full history implies every session guarantee, but
// the linearizability checker is exponential and may exhaust its budget on
// long chaos histories. The checks here are linear-time, decide always, and
// produce a much sharper explanation when they fire ("client pX read a
// value older than its own write") than a generic "no linearization order
// exists". They are sound — no false positives — but deliberately not
// complete: an undetected violation is left for the full checker.
#pragma once

#include <string>
#include <vector>

#include "checker/history.h"

namespace cht::checker {

// Read-your-writes for the KV object (operation kinds get/put/del/cas; any
// other kind is ignored). A completed get(k) by client C must not return a
// value that can only have been installed *before* C's latest own write to
// k acknowledged by the time the get was invoked. An ack at that instant
// counts: a client sends its next op in the callback that acks the previous
// one, and direct submissions run after every event of their instant. A
// write still in flight does not: a replica on the direct path has several
// ops in flight, and the get may linearize before its own pending put. The
// decision is made on real-time windows: a write S can legally be the
// read's source only if S might linearize after C's write (S did not
// respond before C's write was invoked) and before the read's response (S
// was invoked by then). If no such source exists, C's write was skipped.
//
// Sound for histories whose written values identify their writer (the chaos
// workload writes run-unique values); duplicate values can only mask a
// violation, never invent one.
std::vector<std::string> check_read_your_writes(
    const std::vector<HistoryOp>& ops);

}  // namespace cht::checker
