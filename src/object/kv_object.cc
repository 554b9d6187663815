#include "object/kv_object.h"

#include "common/assert.h"

namespace cht::object {

std::string KVState::fingerprint() const {
  std::string out;
  for (const auto& [k, v] : entries_) {
    append_field(out, k);
    append_field(out, v);
  }
  return out;
}

std::string KVObject::key_of(const Operation& op) {
  if (op.kind == "get" || op.kind == "del") return op.arg;
  if (op.kind == "put" || op.kind == "cas") return arg_field(op.arg, 0);
  return "";
}

Response KVObject::apply(ObjectState& state, const Operation& op) const {
  auto& kv = dynamic_cast<KVState&>(state);
  if (op.kind == "get") {
    auto it = kv.entries().find(op.arg);
    return it == kv.entries().end() ? "" : it->second;
  }
  if (op.kind == "size") return std::to_string(kv.entries().size());
  if (op.kind == "put") {
    kv.entries()[arg_field(op.arg, 0)] = arg_field(op.arg, 1);
    return "ok";
  }
  if (op.kind == "del") {
    kv.entries().erase(op.arg);
    return "ok";
  }
  if (op.kind == "cas") {
    const std::string key = arg_field(op.arg, 0);
    const std::string expected = arg_field(op.arg, 1);
    const std::string desired = arg_field(op.arg, 2);
    auto it = kv.entries().find(key);
    const std::string current = it == kv.entries().end() ? "" : it->second;
    if (current != expected) return "fail";
    kv.entries()[key] = desired;
    return "ok";
  }
  if (op.kind == "noop") return "ok";
  CHT_UNREACHABLE("unknown kv operation");
}

bool KVObject::conflicts(const Operation& read, const Operation& rmw) const {
  if (is_no_op(rmw)) return false;
  if (read.kind == "size") return true;  // put/del/cas may change key set
  return key_of(read) == key_of(rmw);
}

}  // namespace cht::object
