// LM problem orchestration: structural check → encode → solve → decode and
// verify.
//
// Mirrors Section III-A end to end: the primal problem (f on 4-connected
// top–bottom paths) and the dual problem (f^D on 8-connected left–right
// paths) decide the same question; a timeout is treated as "not realizable on
// this lattice" by callers — the designed source of approximation.
//
// Only one side is ever built: the one with the smaller estimated clause
// count. The other is never constructed, so peak encode memory is one
// formula and one call is one single-threaded solve. Parallelism lives a
// layer up (the dichotomic probe fan-out and batch sharding), where
// independent calls run side by side.
//
// `lm_options::sessions` switches the side from the scratch encoder+solver
// to a leased incremental session (see lm_session.hpp): the same verdicts,
// but learned clauses persist across the caller's probe ladder and
// proven-unrealizable dimensions short-circuit dominated probes.
#pragma once

#include <optional>

#include "exec/cancellation.hpp"
#include "lm/encoding.hpp"
#include "lm/lm_session.hpp"
#include "util/timer.hpp"

namespace janus::lm {

enum class lm_status : std::uint8_t {
  realizable,    ///< SAT; `mapping` holds a verified realization
  unrealizable,  ///< UNSAT (under the active heuristic rules) or structural fail
  unknown,       ///< budget expired before an answer
  skipped,       ///< lattice too large to encode (path cap exceeded)
  cancelled,     ///< externally cancelled (e.g. a sibling probe already won)
};

struct lm_options {
  lm_encode_options encode;
  /// SAT solver configuration for every solver this call touches: the
  /// one-shot path constructs its solvers with it, and session pools should
  /// be constructed with the same value (one-shot solves additionally get
  /// bounded variable elimination, since they freeze no variables).
  sat::solver_options solver = default_lm_solver_options();
  double sat_time_limit_s = 1200.0;  // the paper's empirically chosen limit
  std::int64_t conflict_budget = -1;
  /// Candidates whose cheaper side would still exceed this many clauses are
  /// skipped outright (estimated before construction; bounds memory and
  /// encode time on wide-input targets).
  std::uint64_t max_encoding_clauses = 4'000'000;
  /// External cancellation: raising it aborts the solve mid-search.
  exec::cancel_token cancel;
  /// Incremental sessions (nullptr = one-shot solve). When set, the probe
  /// leases a persistent per-(target, side) solver from this pool
  /// instead of building a fresh encoder + solver, keeping learned clauses
  /// across the dichotomic ladder; rule-free UNSAT cores feed the pool's
  /// frontier and dominated dimensions are answered without solving. The
  /// pool must belong to the same target being solved, and must have been
  /// constructed with the same `encode` options as this struct — session
  /// probes encode with the pool's stored options, so a mismatch would
  /// silently break session/one-shot parity.
  lm_session_pool* sessions = nullptr;
};

struct lm_result {
  lm_status status = lm_status::skipped;
  std::optional<lattice::lattice_mapping> mapping;
  bool used_dual_problem = false;
  /// UNSAT independent of the heuristic rule clauses (rule-free conflict
  /// core in session mode, structural rejection, or dominance by the
  /// session pool's frontier). NOT an exactness certificate: the core still
  /// bakes in the active TL restriction (`tl_isop_literals_only`), so this
  /// means "unrealizable under the active encoding options" — which is
  /// dims-independent and monotone in rows and columns, the two properties
  /// frontier pruning needs for scratch-parity.
  bool definitely_unrealizable = false;
  lm_encoding_stats encoding;
  /// SAT counters of the solve this call ran; batch synthesis aggregates
  /// these across targets.
  sat::solver_stats solver;
};

/// Decide (approximately) whether `target` fits the lattice described by
/// `info`, within `budget`.
[[nodiscard]] lm_result solve_lm(const target_spec& target,
                                 const lattice_info& info,
                                 const lm_options& options,
                                 deadline budget = deadline::never());

}  // namespace janus::lm
