// The portfolio: several synthesis backends racing on one target.
//
// Runs on the dichotomic probe fan-out's race, exec::race_ranked: every
// requested backend gets its own cancel_source linked under the caller's
// token and runs on the caller's pool, or, when there is none, on a pool of
// one worker per backend. A definitive answer (a converged, verified
// realization) at rank i cancels every backend ranked after i mid-solve —
// they can no longer win — while the ones ranked before it run on.
//
// Winner selection is completion-order independent: among the backends that
// finished definitively, the one earliest in the request order (the
// registry's priority order by default) wins. Since nothing ranked below
// the eventual winner is ever cancelled by a sibling, a racing call picks
// the same winner as compare mode. With `race = false` (the CLI's compare mode, the fuzz
// axis, per-backend bench columns) nothing is cancelled: every backend runs
// to completion and the full cost table is reproducible run to run.
#pragma once

#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "synth/janus.hpp"

namespace janus::synth {

struct portfolio_options {
  /// Backend names to race, in priority order (ties in definitive finishes
  /// go to the earliest). Empty = every registered backend.
  std::vector<std::string> backends;

  janus_options base;  ///< shared tuning + caches handed to every backend

  /// Cancel siblings once one backend is definitive. Off = compare mode:
  /// all backends run to completion (no intra-target cancellation).
  bool race = true;
};

struct portfolio_result {
  /// One entry per requested backend, in request order.
  std::vector<backend::backend_result> entries;
  int winner = -1;  ///< index into `entries`; -1 = no definitive finisher
  double seconds = 0.0;

  [[nodiscard]] const backend::backend_result* winning() const {
    return winner >= 0 ? &entries[static_cast<std::size_t>(winner)] : nullptr;
  }
};

/// Race (or, with race=false, survey) the requested backends on one target.
/// `dl` is the per-target budget every backend receives; `ctx` carries the
/// caller's cancellation and (optionally) the shared pool.
[[nodiscard]] portfolio_result run_portfolio(const lm::target_spec& target,
                                             const portfolio_options& options,
                                             deadline dl = deadline::never(),
                                             exec::context ctx = {});

}  // namespace janus::synth
