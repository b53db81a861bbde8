#include "exec/exec.hpp"

#include <vector>

#include "util/thread_annotations.hpp"

namespace janus::exec {

std::size_t race_ranked(
    const context& ctx, std::size_t n, bool race,
    const std::function<bool(std::size_t, const cancel_token&)>& task) {
  std::vector<cancel_source> stops;
  stops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stops.emplace_back(ctx.cancel);
  }
  util::mutex mutex;
  std::size_t winner = n;
  task_group group(ctx.pool);
  for (std::size_t i = 0; i < n; ++i) {
    group.run([&, i] {
      if (!task(i, stops[i].token())) {
        return;
      }
      util::lock_guard lock(mutex);
      if (i < winner) {
        winner = i;
        for (std::size_t j = i + 1; race && j < n; ++j) {
          stops[j].request_cancel();
        }
      }
    });
  }
  group.wait();
  return winner;
}

}  // namespace janus::exec
