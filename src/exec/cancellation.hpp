// Cooperative cancellation for the parallel execution engine.
//
// A `cancel_source` owns a single atomic stop flag; `cancel_token` is the
// read-only view handed to workers. Sources form a tree: a source constructed
// from a parent token is cancelled automatically when the parent fires, so a
// batch- or step-level cancellation cascades into every probe it spawned and
// from there into the in-flight SAT solvers (which poll the raw flag inside
// their budget checks — see sat::solver::set_stop_flag).
//
// Tokens are cheap to copy and safe to outlive their source. A
// default-constructed token never cancels.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "util/thread_annotations.hpp"

namespace janus::exec {

namespace detail {

struct cancel_state {
  /// The stop flag solvers poll in hot loops; lock-free by design.
  std::atomic<bool> flag{false};  // lint: unguarded(polled from SAT inner loops; relaxed flag)
  util::mutex mutex;
  std::vector<std::weak_ptr<cancel_state>> children JANUS_GUARDED_BY(mutex);

  /// Set the flag and cascade to every still-alive child (once).
  void cancel() JANUS_EXCLUDES(mutex);

  /// Register `child` for cascade; cancels it immediately when this state
  /// already fired.
  void link_child(const std::shared_ptr<cancel_state>& child)
      JANUS_EXCLUDES(mutex);
};

}  // namespace detail

class cancel_token {
 public:
  cancel_token() = default;  ///< never cancels

  [[nodiscard]] bool cancelled() const {
    return state_ != nullptr && state_->flag.load(std::memory_order_relaxed);
  }

  /// The raw flag workers may poll in hot loops (nullptr for an empty token).
  [[nodiscard]] const std::atomic<bool>* flag() const {
    return state_ != nullptr ? &state_->flag : nullptr;
  }

 private:
  friend class cancel_source;
  explicit cancel_token(std::shared_ptr<detail::cancel_state> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::cancel_state> state_;
};

class cancel_source {
 public:
  /// A fresh, independent source.
  cancel_source() : state_(std::make_shared<detail::cancel_state>()) {}

  /// A source linked under `parent`: cancelling the parent cancels this
  /// source too (but not vice versa). A parent that already fired makes the
  /// new source start out cancelled.
  explicit cancel_source(const cancel_token& parent) : cancel_source() {
    if (parent.state_ != nullptr) {
      parent.state_->link_child(state_);
    }
  }

  void request_cancel() { state_->cancel(); }

  [[nodiscard]] bool cancel_requested() const {
    return state_->flag.load(std::memory_order_relaxed);
  }

  [[nodiscard]] cancel_token token() const { return cancel_token{state_}; }

 private:
  std::shared_ptr<detail::cancel_state> state_;
};

}  // namespace janus::exec
