// Object model.
//
// The paper defines an object by a set of states Sigma, operations Ops,
// responses Res, and a transition function tau: Sigma x Ops -> Sigma x Res.
// An operation is a *read* if it never changes the state; otherwise it is a
// read-modify-write (RMW). A read R *conflicts* with a RMW W if there is a
// state from which R returns different values depending on whether it runs
// before or after W.
//
// Concrete objects implement ObjectModel. The conflict predicate may be
// conservative (returning true when unsure is always safe: it can only make
// a read wait longer, never return a stale value).
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

namespace cht::object {

// An operation instance. `kind` selects the transition; `arg` carries
// parameters in a model-defined encoding. Cheap to copy and hashable, so it
// can travel in messages and batches.
struct Operation {
  std::string kind;
  std::string arg;

  auto operator<=>(const Operation&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Operation& op) {
    os << op.kind;
    if (!op.arg.empty()) os << "(" << op.arg << ")";
    return os;
  }
};

using Response = std::string;

// Mutable object state. Cloneable for snapshots (checker, new-leader catch
// up) and fingerprintable for the linearizability checker.
class ObjectState {
 public:
  virtual ~ObjectState() = default;
  virtual std::unique_ptr<ObjectState> clone() const = 0;
  // A string that encodes the state exactly: two states are equal iff their
  // fingerprints are. The checker takes the fingerprint as a state's
  // identity, so a collision would merge two states and could convict a
  // linearizable history (or pass a broken one). An encoding of several
  // strings must be injective whatever bytes they hold: length-prefix each
  // field (append_field) rather than joining them with separators.
  virtual std::string fingerprint() const = 0;
};

class ObjectModel {
 public:
  virtual ~ObjectModel() = default;

  virtual std::string name() const = 0;
  virtual std::unique_ptr<ObjectState> make_initial_state() const = 0;

  // Applies `op` to `state` in place and returns the response. Must be
  // deterministic.
  virtual Response apply(ObjectState& state, const Operation& op) const = 0;

  // True iff `op` never modifies any state.
  virtual bool is_read(const Operation& op) const = 0;

  // True iff the read `read` conflicts with the RMW `rmw` (see header
  // comment). Only called with is_read(read) && !is_read(rmw).
  virtual bool conflicts(const Operation& read, const Operation& rmw) const = 0;

  // Locality hook for the linearizability checker (Herlihy & Wing:
  // linearizability is compositional across independent sub-objects). If
  // every operation of a history touches exactly one sub-object, returning
  // distinct non-empty labels per sub-object lets the checker verify each
  // sub-history independently. Return "" for operations that span
  // sub-objects (forces a whole-history check). Purely an optimization: the
  // default partitions nothing.
  virtual std::string partition_label(const Operation& op) const {
    (void)op;
    return "";
  }
};

// The universal no-op RMW operation. The replication algorithm submits one
// when a new leader finishes initialization (to guarantee read liveness even
// if no client ever submits another RMW). Every ObjectModel must accept it:
// it is not a read (it flows through the RMW path), it leaves the state
// unchanged, and it conflicts with nothing.
inline Operation no_op() { return {"noop", ""}; }
inline bool is_no_op(const Operation& op) { return op.kind == "noop"; }

// --- Argument codec helpers (colon-separated fields) -----------------------
std::string encode_args(std::initializer_list<std::string> fields);
std::string arg_field(const std::string& arg, int index);

// Appends `field` to a fingerprint as "<length>:<bytes>", so a sequence of
// fields decodes one way only, whatever characters they contain.
void append_field(std::string& out, std::string_view field);

}  // namespace cht::object
