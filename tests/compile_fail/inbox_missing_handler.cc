// Proof that the compiler enforces dispatch exhaustiveness. The receiver's
// inbox lists two message types. Built as is, it has a handler for each and
// dispatches both (the control test runs it). Built with
// CHT_DROP_PONG_HANDLER, the Pong handler is gone and this translation unit
// must fail on sim::Inbox's static_assert (the compile-fail test).
#include <memory>
#include <string_view>

#include "common/types.h"
#include "sim/message.h"

namespace {

using cht::ProcessId;
using cht::sim::Message;

struct Ping {
  static constexpr std::string_view kType = "test.ping";
};
struct Pong {
  static constexpr std::string_view kType = "test.pong";
};

class Receiver {
 public:
  using Inbox = cht::sim::Inbox<Ping, Pong>;
  bool handle(const Message& message) {
    return Inbox::dispatch(message, *this);
  }
  int pings = 0;
  int pongs = 0;

 private:
  friend Inbox;
  void on(ProcessId, const Ping&) { ++pings; }
#ifndef CHT_DROP_PONG_HANDLER
  void on(ProcessId, const Pong&) { ++pongs; }
#endif
};

template <class T>
Message envelope() {
  return Message::of(ProcessId(0), ProcessId(1), std::make_shared<const T>());
}

}  // namespace

int main() {
  Receiver receiver;
  const bool delivered =
      receiver.handle(envelope<Ping>()) && receiver.handle(envelope<Pong>());
  return delivered && receiver.pings == 1 && receiver.pongs == 1 ? 0 : 1;
}
