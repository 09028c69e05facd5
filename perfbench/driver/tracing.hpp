#pragma once

// Spans recorded from the benchmark's own files: a timing proxy Agent that
// wraps a protocol agent's port, and a scope timer for the benchmark's calls
// into a layer.  A span's self time is its duration minus the duration of
// spans that ran inside it (tracked through a thread-local child-time
// accumulator), so nested deliveries are never counted twice.

#include <chrono>
#include <cstdint>

#include "net/node.hpp"

namespace perfbench {

struct Span {
  double self_s{0.0};
  std::int64_t calls{0};
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Charges the enclosed scope to `span` (or to nothing when `span` is null,
/// so untraced runs pay one branch).
class SpanScope {
 public:
  explicit SpanScope(Span* span) : span_{span} {
    if (span_ == nullptr) return;
    parent_child_s_ = child_s_;
    child_s_ = 0.0;
    start_ = now_s();
  }
  ~SpanScope() {
    if (span_ == nullptr) return;
    const double d = now_s() - start_;
    span_->self_s += d - child_s_;
    ++span_->calls;
    child_s_ = parent_child_s_ + d;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  static inline thread_local double child_s_ = 0.0;
  Span* span_;
  double start_{0.0};
  double parent_child_s_{0.0};
};

/// Stands in for `inner` on its port: forwards every delivery and the
/// endpoint count unchanged and charges the delivery to `span`.  Installed
/// with Node::attach_agent, which replaces the port's agent in place, so
/// the node's delivery order is untouched.
class TimingProxy final : public tfmcc::Agent {
 public:
  TimingProxy(tfmcc::Agent& inner, Span& span) : inner_{&inner}, span_{&span} {}
  // A node holds the proxy's address for as long as it is attached.
  TimingProxy(const TimingProxy&) = delete;
  TimingProxy& operator=(const TimingProxy&) = delete;

  void handle_packet(const tfmcc::Packet& p) override {
    SpanScope scope{span_};
    inner_->handle_packet(p);
  }
  int endpoint_count() const override { return inner_->endpoint_count(); }

 private:
  tfmcc::Agent* inner_;
  Span* span_;
};

}  // namespace perfbench
