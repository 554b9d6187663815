// Mutation self-test support: an adapter decorator that deliberately breaks
// linearizability, so the chaos harness can prove it has teeth.
//
// EvilAdapter interposes on the submit path of any ClusterAdapter and serves
// a fraction of reads from a frozen snapshot of the initial object state —
// the classic "read from a stale applied index" bug. Any read answered this
// way after a completed conflicting write yields a non-linearizable history
// that the sweep MUST flag; test_chaos_mutation.cc asserts it does within a
// bounded seed budget.
//
// Build-time gated: this header and evil.cc refuse to compile unless
// CHT_CHAOS_ENABLE_EVIL is defined, and evil.cc is deliberately NOT part of
// the cht_chaos library — only the mutation self-test target compiles it.
#pragma once

#ifndef CHT_CHAOS_ENABLE_EVIL
#error "chaos evil mode must be enabled explicitly (-DCHT_CHAOS_ENABLE_EVIL)"
#endif

#include <memory>

#include "chaos/adapter.h"

namespace cht::chaos {

class EvilAdapter final : public ForwardingAdapter {
 public:
  // Serves every `stale_every`-th read from the frozen initial state.
  EvilAdapter(std::unique_ptr<ClusterAdapter> inner, int stale_every = 3);

  void submit(int process, object::Operation op) override;
  std::size_t submitted() const override {
    return inner().submitted() + stale_served_;
  }
  std::size_t completed() const override {
    return inner().completed() + stale_served_;
  }

 private:
  int stale_every_;
  int reads_seen_ = 0;
  std::size_t stale_served_ = 0;
  std::unique_ptr<object::ObjectState> frozen_state_;
};

}  // namespace cht::chaos
