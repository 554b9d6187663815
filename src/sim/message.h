// Message envelope carried by the simulated network, and the inbox that
// hands it to a typed handler.
//
// A message *is* its payload struct: each protocol module defines plain wire
// structs naming themselves with `static constexpr std::string_view kType`
// (e.g. "core.prepare", the name per-type accounting and traces use). The
// envelope holds the struct behind a shared immutable pointer, so a
// broadcast and any network duplicate share one allocation, and tags it
// with a per-type address compared by identity; sim knows no protocol.
#pragma once

#include <concepts>
#include <memory>
#include <string_view>
#include <utility>

#include "common/assert.h"
#include "common/time.h"
#include "common/types.h"

namespace cht::sim {

template <class T>
concept WireMessage = requires {
  { T::kType } -> std::convertible_to<std::string_view>;
};

namespace detail {
template <class T>
inline constexpr char wire_tag = 0;  // its address is T's envelope tag
}  // namespace detail

struct Message {
  ProcessId from;
  ProcessId to;
  std::string_view type;  // the payload struct's kType
  std::shared_ptr<const void> payload;
  const void* tag = nullptr;
  RealTime sent_at;
  // The sender's local clock reading at send time, stamped by Process::send.
  // Receivers with a clock guard derive a sound pairwise-skew lower bound
  // from it (clock_guard.h). LocalTime::min() marks an unstamped message
  // (hand-crafted in tests); guards ignore those.
  LocalTime sent_local = LocalTime::min();

  // The one way to build an envelope; Process::send uses it too.
  template <WireMessage T>
  static Message of(ProcessId from, ProcessId to,
                    std::shared_ptr<const T> payload) {
    Message m;
    m.from = from;
    m.to = to;
    m.type = T::kType;
    m.payload = std::move(payload);
    m.tag = &detail::wire_tag<T>;
    return m;
  }

  template <WireMessage T>
  bool is() const {
    return tag == &detail::wire_tag<T>;
  }

  template <WireMessage T>
  const T& as() const {
    CHT_ASSERT(is<T>(), "message payload type mismatch");
    return *static_cast<const T*>(payload.get());
  }
};

// The wire structs one receiver handles. Inbox<A, B>::dispatch(m, r) calls
// r.on(m.from, payload) for whichever listed struct m carries and returns
// whether there was one. A listed struct without such an overload fails to
// compile; receivers with private handlers declare `friend Inbox;`.
template <WireMessage... Ts>
struct Inbox {
  template <class Receiver, class T>
  static constexpr bool handles = requires(Receiver& r, const T& payload) {
    r.on(ProcessId(), payload);
  };

  template <class Receiver>
  static bool dispatch(const Message& message, Receiver& receiver) {
    constexpr bool complete = (handles<Receiver, Ts> && ...);
    static_assert(complete,
                  "sim::Inbox lists a message type that has no "
                  "on(ProcessId, const T&) handler");
    if constexpr (complete) {
      return ((message.is<Ts>() &&
               (receiver.on(message.from, message.as<Ts>()), true)) ||
              ...);
    }
    return false;
  }
};

}  // namespace cht::sim
