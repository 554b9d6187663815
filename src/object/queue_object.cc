#include "object/queue_object.h"

#include "common/assert.h"

namespace cht::object {

std::string QueueState::fingerprint() const {
  std::string out;
  for (const auto& item : items_) append_field(out, item);
  return out;
}

Response QueueObject::apply(ObjectState& state, const Operation& op) const {
  auto& queue = dynamic_cast<QueueState&>(state);
  if (op.kind == "enqueue") {
    queue.items().push_back(op.arg);
    return std::to_string(queue.items().size());
  }
  if (op.kind == "dequeue") {
    if (queue.items().empty()) return "";
    const std::string front = queue.items().front();
    queue.items().pop_front();
    return front;
  }
  if (op.kind == "front") {
    return queue.items().empty() ? "" : queue.items().front();
  }
  if (op.kind == "length") return std::to_string(queue.items().size());
  if (op.kind == "noop") return "ok";
  CHT_UNREACHABLE("unknown queue operation");
}

}  // namespace cht::object
