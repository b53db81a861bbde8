// The execution context threaded through the solve pipeline.
//
// Every parallel-capable layer (the dichotomic probe fan-out in janus, the
// batch front-end, the backend portfolio) receives one of these instead of
// spawning threads itself, so a whole run shares a single pool and a single
// cancellation tree:
//
//   synthesize_batch ── pool ──┬─ target task ── probe fan-out ─┬─ probe task
//                              │                                │    └─ solve_lm
//                              └─ target task …                 └─ probe task …
//
// A probe's solve_lm is one single-threaded SAT solve under the probe's
// cancellation token.
//
// Who owns a pool: the entry point that owns the worker count
// (`synthesize_batch` through `batch_options::jobs`, the CLI through `-j`),
// janusd and a jobs=1 portfolio batch, which each create one race pool for
// all their portfolio races, and a standalone portfolio race, which
// run_portfolio gives one worker per backend when the caller passes none.
// Every other layer borrows `pool`.
// `pool == nullptr` runs every layer's fan-out inline on the calling thread,
// in rank order (a null-pool task_group), not a separate sequential path.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "exec/cancellation.hpp"
#include "exec/thread_pool.hpp"

namespace janus::exec {

struct context {
  thread_pool* pool = nullptr;  ///< non-owning; nullptr = inline
  cancel_token cancel;          ///< external cancellation (empty = never)

  /// The same context with a different cancellation token (used when a layer
  /// interposes its own cancel_source between parent and child work).
  [[nodiscard]] context with_cancel(cancel_token token) const {
    context c = *this;
    c.cancel = std::move(token);
    return c;
  }
};

/// The ranked race shared by the dichotomic probe fan-out and the backend
/// portfolio. Runs `task(i, token)` for every rank i in [0, n) on `ctx.pool`
/// (inline, in rank order, when it is null); each rank's token comes from
/// its own cancel_source linked under `ctx.cancel`. A task returns true for
/// a definitive answer. With `race`, that cancels every rank after it and
/// none before it, so every rank below the eventual winner runs to the end
/// and the winner does not depend on completion order. A task is called
/// even when its token already fired, so it can record that it never ran.
/// Returns the lowest rank whose task returned true, or n.
std::size_t race_ranked(
    const context& ctx, std::size_t n, bool race,
    const std::function<bool(std::size_t, const cancel_token&)>& task);

}  // namespace janus::exec
