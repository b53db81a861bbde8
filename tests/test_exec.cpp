// Unit tests for the parallel execution engine: the thread pool, the
// caller-helping task groups (including nesting on one pool, which must not
// deadlock), the linked cancellation tree and the ranked race.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
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

/// Spin until `token` fires or five seconds pass; true when it fired.
bool await_cancel(const cancel_token& token) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!token.cancelled()) {
    if (std::chrono::steady_clock::now() > give_up) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(RaceRanked, LowestTrueRankWinsWhateverTheFinishOrder) {
  // Rank 2 answers first, then rank 1, then rank 0 (which answers false):
  // the winner is rank 1, not the first to finish.
  thread_pool pool(3);
  std::latch two_done(1);
  std::latch one_done(1);
  const std::size_t winner = race_ranked(
      context{&pool, {}}, 3, /*race=*/true,
      [&](std::size_t i, const cancel_token&) {
        if (i == 2) {
          two_done.count_down();
          return true;
        }
        if (i == 1) {
          two_done.wait();
          one_done.count_down();
          return true;
        }
        one_done.wait();
        return false;
      });
  EXPECT_EQ(winner, 1u);
}

TEST(RaceRanked, WinnerCancelsOnlyLaterRanks) {
  // Rank 1 wins at once. Rank 2 waits for the cancel that win sends; rank 0
  // looks at its own token only after that cancel landed, and it is clean.
  thread_pool pool(3);
  std::latch two_cancelled(1);
  std::atomic<bool> zero_cancelled{true};
  std::atomic<bool> two_saw_cancel{false};
  const std::size_t winner = race_ranked(
      context{&pool, {}}, 3, /*race=*/true,
      [&](std::size_t i, const cancel_token& token) {
        if (i == 1) {
          return true;
        }
        if (i == 2) {
          two_saw_cancel = await_cancel(token);
          two_cancelled.count_down();
          return false;
        }
        two_cancelled.wait();
        zero_cancelled = token.cancelled();
        return false;
      });
  EXPECT_EQ(winner, 1u);
  EXPECT_TRUE(two_saw_cancel.load());
  EXPECT_FALSE(zero_cancelled.load());
}

TEST(RaceRanked, ParentCancelReachesEveryRank) {
  thread_pool pool(2);
  cancel_source parent;
  std::atomic<int> saw_cancel{0};
  const std::size_t winner = race_ranked(
      context{&pool, parent.token()}, 4, /*race=*/true,
      [&](std::size_t i, const cancel_token& token) {
        if (i == 0) {
          parent.request_cancel();
        }
        if (await_cancel(token)) {
          ++saw_cancel;
        }
        return false;
      });
  EXPECT_EQ(winner, 4u);
  EXPECT_EQ(saw_cancel.load(), 4);
}

TEST(RaceRanked, NullPoolRunsRanksInOrderAndCancelsAfterTheWin) {
  for (const bool race : {true, false}) {
    std::vector<std::size_t> order;
    std::vector<bool> cancelled;
    const std::size_t winner = race_ranked(
        context{}, 4, race, [&](std::size_t i, const cancel_token& token) {
          order.push_back(i);
          cancelled.push_back(token.cancelled());
          return i == 1 || i == 3;
        });
    EXPECT_EQ(winner, 1u);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
    // Without race a win cancels nothing (compare mode).
    EXPECT_EQ(cancelled, (std::vector<bool>{false, false, race, race}));
  }
}

}  // namespace
}  // namespace janus::exec
