// The execution context threaded through the solve pipeline.
//
// Every parallel-capable layer (the dichotomic probe fan-out in janus, the
// batch front-end, the backend portfolio) receives one of these instead of
// spawning threads itself, so a whole batch shares a single pool and a
// single cancellation tree:
//
//   synthesize_batch ── pool ──┬─ target task ── probe fan-out ─┬─ probe task
//                              │                                │    └─ solve_lm
//                              └─ target task …                 └─ probe task …
//
// A probe's solve_lm is one single-threaded SAT solve under the probe's
// cancellation token.
//
// `pool == nullptr` means jobs=1: every layer runs the same fan-out inline
// on the calling thread, in rank order (a null-pool task_group), not a
// separate sequential path.
#pragma once

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

}  // namespace janus::exec
