// A fixed-size worker pool plus structured task groups.
//
// The pool is a plain FIFO of type-erased jobs. All higher-level fan-out goes
// through `task_group`, whose wait() *helps*: the waiting thread executes its
// own group's unclaimed tasks instead of blocking. This makes nested
// parallelism deadlock-free — a pool worker that runs a target task which in
// turn spawns a probe fan-out group and waits on it will drain that inner
// group itself if no other worker is free. It also gives the jobs=1
// degenerate case for free: a group with a null pool runs every task inline,
// in submission order, at run() time.
//
// Tasks must not throw for control flow; a task that does throw has its
// exception captured and rethrown from wait() (first one wins).
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace janus::exec {

class thread_pool {
 public:
  /// Spawns `workers` threads (0 is allowed: submit() then runs inline).
  explicit thread_pool(std::size_t workers);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Enqueue a job for any worker. Jobs must not throw.
  void submit(std::function<void()> job);

 private:
  void worker_loop();

  util::mutex mutex_;
  util::cond_var cv_;
  std::deque<std::function<void()>> queue_ JANUS_GUARDED_BY(mutex_);
  bool stopping_ JANUS_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;  ///< written in the ctor only; joined in ~
};

/// A set of tasks whose completion is awaited together.
class task_group {
 public:
  /// `pool` may be nullptr: tasks then run inline during run().
  explicit task_group(thread_pool* pool);
  ~task_group() { wait_no_rethrow(); }

  task_group(const task_group&) = delete;
  task_group& operator=(const task_group&) = delete;

  /// Add a task. With a pool it becomes claimable by any worker (or by the
  /// thread that later calls wait()); without one it runs here and now.
  void run(std::function<void()> task);

  /// Execute unclaimed tasks on the calling thread, then block until every
  /// in-flight task finished. Rethrows the first captured task exception.
  void wait();

 private:
  struct state {
    util::mutex mutex;
    util::cond_var cv;
    std::deque<std::function<void()>> pending JANUS_GUARDED_BY(mutex);
    /// pending + currently executing
    std::size_t unfinished JANUS_GUARDED_BY(mutex) = 0;
    std::exception_ptr error JANUS_GUARDED_BY(mutex);

    /// Claim and run one pending task; false if none were pending.
    bool execute_one() JANUS_EXCLUDES(mutex);
    void record_done() JANUS_EXCLUDES(mutex);
  };

  void wait_no_rethrow();

  thread_pool* pool_;
  std::shared_ptr<state> state_;
};

}  // namespace janus::exec
