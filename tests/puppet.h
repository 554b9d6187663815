// A scripted peer for white-box protocol tests: records every message it
// receives and sends only when a test tells it to.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/message.h"
#include "sim/process.h"

namespace cht::test {

class Puppet : public sim::Process {
 public:
  void on_message(const sim::Message& message) override {
    received.push_back(message);
  }
  std::vector<sim::Message> received;

  // How many T messages arrived.
  template <class T>
  int count() const {
    return static_cast<int>(
        std::count_if(received.begin(), received.end(),
                      [](const sim::Message& m) { return m.is<T>(); }));
  }
  // The latest T received, or nullptr.
  template <class T>
  const T* last() const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (it->is<T>()) return &it->as<T>();
    }
    return nullptr;
  }
};

}  // namespace cht::test
