// Unit tests for the parallel execution engine: the thread pool, the
// caller-helping task groups (including nesting on one pool, which must not
// deadlock), and the linked cancellation tree.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/cancellation.hpp"
#include "exec/exec.hpp"
#include "exec/thread_pool.hpp"

namespace janus::exec {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob) {
  thread_pool pool(4);
  std::atomic<int> count{0};
  task_group group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.run([&count] { ++count; });
  }
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  thread_pool pool(0);
  int count = 0;
  pool.submit([&count] { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(TaskGroup, NullPoolRunsInlineInSubmissionOrder) {
  task_group group(nullptr);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    group.run([&order, i] { order.push_back(i); });
  }
  group.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskGroup, WaiterHelpsExecuteItsOwnTasks) {
  // A 1-worker pool whose only worker is parked on a slow job: the waiting
  // thread must drain its own group rather than block behind it.
  thread_pool pool(1);
  std::atomic<bool> release{false};
  task_group blocker(&pool);
  blocker.run([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<int> count{0};
  task_group group(&pool);
  for (int i = 0; i < 10; ++i) {
    group.run([&count] { ++count; });
  }
  group.wait();  // must finish while the worker is still parked
  EXPECT_EQ(count.load(), 10);
  release.store(true);
  blocker.wait();
}

TEST(TaskGroup, NestedGroupsOnOnePoolDoNotDeadlock) {
  thread_pool pool(2);
  std::atomic<int> inner_total{0};
  task_group outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.run([&pool, &inner_total] {
      task_group inner(&pool);
      for (int j = 0; j < 8; ++j) {
        inner.run([&inner_total] { ++inner_total; });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(TaskGroup, RethrowsFirstTaskException) {
  thread_pool pool(2);
  task_group group(&pool);
  group.run([] { throw std::runtime_error("task failed"); });
  group.run([] {});
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(Cancellation, DefaultTokenNeverCancels) {
  const cancel_token token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.flag(), nullptr);
}

TEST(Cancellation, SourceFiresItsTokens) {
  cancel_source source;
  const cancel_token token = source.token();
  EXPECT_FALSE(token.cancelled());
  source.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
  ASSERT_NE(token.flag(), nullptr);
  EXPECT_TRUE(token.flag()->load());
}

TEST(Cancellation, ParentCancelCascadesToLinkedChild) {
  cancel_source parent;
  cancel_source child(parent.token());
  cancel_source grandchild(child.token());
  EXPECT_FALSE(grandchild.token().cancelled());
  parent.request_cancel();
  EXPECT_TRUE(child.token().cancelled());
  EXPECT_TRUE(grandchild.token().cancelled());
}

TEST(Cancellation, ChildCancelDoesNotReachParent) {
  cancel_source parent;
  cancel_source child(parent.token());
  child.request_cancel();
  EXPECT_TRUE(child.token().cancelled());
  EXPECT_FALSE(parent.token().cancelled());
}

TEST(Cancellation, LinkingUnderFiredParentStartsCancelled) {
  cancel_source parent;
  parent.request_cancel();
  const cancel_source child(parent.token());
  EXPECT_TRUE(child.token().cancelled());
}

TEST(Context, WithCancelKeepsThePool) {
  thread_pool pool(2);
  const context parallel{&pool, {}};
  cancel_source source;
  const context recancelled = parallel.with_cancel(source.token());
  EXPECT_EQ(recancelled.pool, &pool);
  source.request_cancel();
  EXPECT_TRUE(recancelled.cancel.cancelled());
}

}  // namespace
}  // namespace janus::exec
