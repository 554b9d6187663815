#include "checker/sessions.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "object/object.h"

namespace cht::checker {
namespace {

// A write's externally visible effect on one key, when it has (or may have)
// one: put installs arg[1], del installs "", cas installs arg[2] iff it
// succeeded. A pending put/del/cas may have applied before the crash or run
// end, so it still counts as a possible source for a read.
struct WriteEffect {
  std::string key;
  std::string value;
};

std::optional<WriteEffect> effect_of(const HistoryOp& op) {
  if (op.op.kind == "put") {
    return WriteEffect{object::arg_field(op.op.arg, 0),
                       object::arg_field(op.op.arg, 1)};
  }
  if (op.op.kind == "del") return WriteEffect{op.op.arg, ""};
  if (op.op.kind == "cas") {
    // A completed cas that answered "fail" wrote nothing; a pending one may
    // have succeeded.
    if (op.response.has_value() && *op.response != "ok") return std::nullopt;
    return WriteEffect{object::arg_field(op.op.arg, 0),
                       object::arg_field(op.op.arg, 2)};
  }
  return std::nullopt;
}

// A client's acknowledged write to a key: the session guarantee obliges reads
// invoked from its acknowledgment on to observe it (or something newer).
struct OwnWrite {
  std::string value;
  RealTime invoked;
  RealTime responded;
  std::string describe;  // "put(k:v)" etc., for the violation message
};

}  // namespace

std::vector<std::string> check_read_your_writes(
    const std::vector<HistoryOp>& ops) {
  std::vector<std::string> violations;

  // ops is in global invocation order (the recorder appends at begin()), so
  // each (client, key) list holds the client's writes in invocation order.
  std::map<std::pair<int, std::string>, std::vector<OwnWrite>> own_writes;

  for (const auto& op : ops) {
    const int client = op.process.index();

    if (op.op.kind == "get") {
      if (!op.completed()) continue;
      const auto writes = own_writes.find({client, op.op.arg});
      if (writes == own_writes.end()) continue;
      // The latest own write acknowledged by the time this read was invoked
      // (an ack at that very instant counts; see sessions.h).
      const auto own = std::find_if(
          writes->second.rbegin(), writes->second.rend(),
          [&](const OwnWrite& w) { return w.responded <= op.invoked; });
      if (own == writes->second.rend()) continue;

      const std::string& got = *op.response;
      if (got == own->value) continue;  // saw the own write itself

      // The read returned something else; legitimate only if some write of
      // exactly that value to this key may linearize after the client's own
      // write and before this read. (The implicit initial "" precedes
      // everything, so it can never justify missing an own write.)
      bool justified = false;
      for (const auto& source : ops) {
        const auto effect = effect_of(source);
        if (!effect || effect->key != op.op.arg || effect->value != got) {
          continue;
        }
        const bool before_own_write =
            source.completed() && *source.responded < own->invoked;
        const bool after_read = source.invoked > *op.responded;
        if (!before_own_write && !after_read) {
          justified = true;
          break;
        }
      }
      if (!justified) {
        std::ostringstream os;
        os << "read-your-writes: " << op.process << " get(" << op.op.arg
           << ") returned \"" << got << "\" after its own acknowledged "
           << own->describe
           << "; no write of that value can linearize after the client's own";
        violations.push_back(os.str());
      }
      continue;
    }

    // Only acknowledged writes enter the session obligation: the client
    // cannot demand to see a write it was never told succeeded.
    if (!op.completed()) continue;
    const auto effect = effect_of(op);
    if (!effect) continue;
    std::ostringstream describe;
    describe << op.op;
    own_writes[{client, effect->key}].push_back(
        OwnWrite{effect->value, op.invoked, *op.responded, describe.str()});
  }

  return violations;
}

}  // namespace cht::checker
