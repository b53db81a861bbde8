// Incremental LM solving sessions — one persistent SAT solver per
// (target, side) across the whole dichotomic ladder.
//
// JANUS solves a *sequence* of closely related LM decision problems per
// target: one per probed lattice dimension. The scratch path rebuilds the
// encoder and a fresh sat::solver for every probe, discarding everything the
// previous probes learned. A session instead keeps one solver alive and
// layers the probes on a shared core:
//
//   * Shared core (emitted once, grown on demand): a pool of CELL SLOTS.
//     Slot s owns |TL| mapping variables and one value variable per
//     distinct truth table entry (support_entries), plus the exactly-one and mapping→value link clauses.
//     These constraints are independent of lattice geometry — probing dims
//     (r, c) simply uses the first r·c slots — so every clause the solver
//     learns over them transfers to every later probe.
//   * Per-dims groups: the path constraints (OFF/ON entries, helper facts)
//     and the heuristic rule clauses of one dims, emitted with activation
//     literals prepended (see lm_emitter::set_activation). A probe of dims d
//     solves under assumptions {structure_d, rules_d} ∪ {¬structure_d',
//     ¬rules_d' : d' undecided}, so exactly one geometry is active per call
//     while the clause database — learned clauses over the core included —
//     persists.
//   * Retirement: a probe that ends sat or unsat retires its group with the
//     units ¬structure_d and ¬rules_d, so the next level-0 sweep deletes the
//     group's clauses and every learnt clause derived through them (each
//     carries a negated guard). The probe memo never asks about a decided
//     dims again; if a caller does, the dims is re-encoded as a fresh group.
//     An unknown verdict keeps its group, so the assumption set is the
//     active group plus the undecided ones.
//
// Verdict parity with the scratch path: under its assumptions the active
// formula is exactly core ∧ group_d, which is equisatisfiable with the
// scratch encoding of d (same constraint families over the same cells, via
// the same lm_emitter). Deactivated groups are satisfied through their
// guards and constrain nothing. SAT models decode and verify identically, so
// every session probe answers what the one-shot solve_lm answers
// (tests/test_incremental.cpp replays whole Table II ladders probe by
// probe to assert this).
//
// Core-guided pruning: when an UNSAT answer's conflict core (see
// sat::solver::conflict_core) does not use the rules_d assumption, the
// refutation holds in the rule-free encoding — the target is unrealizable
// on d under the active TL options, not merely rejected by a heuristic
// rule. That verdict is dims-independent and monotone (drop rows/columns,
// stay unrealizable), so the session pool records d in an UNSAT frontier
// and the dichotomic search prunes every dominated candidate without
// solving. This can only replace probes whose scratch verdict would also
// be UNSAT, preserving parity.
//
// Threading: one lm_session is single-threaded. The pool hands out sessions
// under a lock — concurrent probes (the dichotomic fan-out) each lease
// their own session, so jobs=1 gets perfect reuse and
// jobs=N trades some sharing for parallelism. Cancellation is safe at every
// point: an aborted solve() returns unknown, keeps all learned clauses and
// its group, and the session is immediately reusable.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "exec/cancellation.hpp"
#include "lm/encoding.hpp"
#include "util/lock_order.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace janus::lm {

/// Solver configuration for LM instances: inprocessing on. One-shot solves
/// freeze nothing and get the full reduction (bounded variable elimination
/// included); sessions freeze every interface variable, so they keep the
/// vivification rounds but skip elimination — the split docs/solver.md
/// describes.
[[nodiscard]] inline sat::solver_options default_lm_solver_options() {
  sat::solver_options o;
  o.inprocess = true;
  return o;
}

class lm_session {
 public:
  lm_session(const target_spec& target, bool dual_side,
             lm_encode_options options, sat::solver_options solver_options);

  /// Everything one incremental probe produced.
  struct probe_result {
    sat::solve_result verdict = sat::solve_result::unknown;
    std::optional<lattice::lattice_mapping> mapping;  ///< primal mapping, on sat
    /// UNSAT whose conflict core does not use the rule-clause assumption:
    /// the rule-free encoding alone is contradictory. Still relative to the
    /// session's TL options (ISOP-filtered literals by default), but that
    /// restriction is dims-independent and monotone, so the verdict is safe
    /// to propagate to dominated dimensions.
    bool rule_free_unsat = false;
    /// dims had an undecided group in this session (an earlier unknown)
    bool reused_group = false;
    /// Clauses newly added for this probe (0/0 when the group was reused).
    lm_encoding_stats encoding;
    /// Solver work attributable to this solve() call (stats delta).
    sat::solver_stats solver_delta;
  };

  /// Probe one dims: extend the shared core to `info.d.size()` slots if
  /// needed, encode the dims group unless an undecided one exists, solve
  /// under the group's activation assumptions, and retire the group once
  /// the verdict is sat or unsat. `stop` aborts mid-solve (verdict
  /// unknown); the session stays valid and reusable afterwards.
  [[nodiscard]] probe_result probe(const lattice_info& info, deadline budget,
                                   double sat_time_limit_s,
                                   std::int64_t conflict_budget,
                                   const exec::cancel_token& stop);

  [[nodiscard]] bool dual_side() const { return dual_side_; }
  [[nodiscard]] const sat::solver& solver() const { return solver_; }
  /// Groups still encoded: those whose last probe was unknown.
  [[nodiscard]] std::size_t num_groups() const { return groups_.size(); }

 private:
  struct dims_group {
    sat::lit structure = sat::lit_undef;  ///< activates the path clauses
    sat::lit rules = sat::lit_undef;      ///< activates the rule clauses
  };

  const target_spec& target_;
  const bool dual_side_;
  const lm_encode_options options_;
  std::vector<lattice::cell_assign> tl_;
  sat::solver solver_;
  lm_var_layout layout_;  ///< grows as larger lattices are probed
  std::map<std::pair<int, int>, dims_group> groups_;
  /// The dims of the previous solve, so probe() can decay branching
  /// activities when the geometry changes: heuristic state tuned for one
  /// dims misleads the search on the next (the learned clauses, which
  /// transfer soundly, are kept). The decay is skipped after a long probe,
  /// whose activity profile indexes a learned-clause DB worth keeping
  /// coupled to the branching order; see probe() for the threshold.
  std::pair<int, int> last_probe_key_{-1, -1};
  std::uint64_t last_probe_conflicts_ = 0;
};

/// Per-target registry of sessions plus the shared UNSAT frontier.
///
/// acquire() leases an idle session for the requested side, creating one
/// when all are leased (the concurrent fan-out case); the lease returns it
/// on destruction. The frontier records dimensions proven unrealizable
/// without the heuristic rules (rule-free UNSAT cores);
/// known_unrealizable() answers dominance queries so callers skip probes
/// whose outcome is already implied. All methods are thread-safe.
class lm_session_pool {
 public:
  /// `target` must outlive the pool (sessions keep references into it).
  lm_session_pool(const target_spec& target, lm_encode_options options,
                  sat::solver_options solver_options)
      : target_(target), options_(options), solver_options_(solver_options) {}

  lm_session_pool(const lm_session_pool&) = delete;
  lm_session_pool& operator=(const lm_session_pool&) = delete;

  /// RAII lease on a session; returns it to the pool on destruction.
  class lease {
   public:
    lease(lm_session_pool* pool, std::unique_ptr<lm_session> session)
        : pool_(pool), session_(std::move(session)) {}
    lease(lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          session_(std::move(other.session_)) {}
    lease& operator=(lease&& other) noexcept {
      if (this != &other) {
        return_to_pool();  // a reassigned lease must not lose its session
        pool_ = std::exchange(other.pool_, nullptr);
        session_ = std::move(other.session_);
      }
      return *this;
    }
    lease(const lease&) = delete;
    lease& operator=(const lease&) = delete;
    ~lease() { return_to_pool(); }
    lm_session* operator->() { return session_.get(); }
    lm_session& operator*() { return *session_; }

   private:
    void return_to_pool() {
      if (pool_ != nullptr && session_ != nullptr) {
        pool_->release(std::move(session_));
      }
      pool_ = nullptr;
    }

    lm_session_pool* pool_;
    std::unique_ptr<lm_session> session_;
  };

  [[nodiscard]] lease acquire(bool dual_side) JANUS_EXCLUDES(mutex_);

  /// Record a rule-free-unrealizable dims (monotone verdict).
  void note_unrealizable(const lattice::dims& d) JANUS_EXCLUDES(mutex_);

  /// Is `d` dominated by a recorded unrealizable dims (d.rows <= r and
  /// d.cols <= c for some recorded (r, c))?
  [[nodiscard]] bool known_unrealizable(const lattice::dims& d) const
      JANUS_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t sessions_created() const JANUS_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t pruned_probes() const JANUS_EXCLUDES(mutex_);
  void count_pruned_probe() JANUS_EXCLUDES(mutex_);

 private:
  friend class lease;
  void release(std::unique_ptr<lm_session> session) JANUS_EXCLUDES(mutex_);

  const target_spec& target_;
  const lm_encode_options options_;
  const sat::solver_options solver_options_;
  /// Pool lock: sits at the session_pool level of the global lock order —
  /// never acquired while a solution-cache lock is wanted (see
  /// util/lock_order.hpp and the table in docs/static-analysis.md).
  mutable util::mutex mutex_
      JANUS_ACQUIRED_AFTER(util::lock_order::solution_cache);
  /// [primal, dual]
  std::vector<std::unique_ptr<lm_session>> idle_[2] JANUS_GUARDED_BY(mutex_);
  std::size_t created_ JANUS_GUARDED_BY(mutex_) = 0;
  std::uint64_t pruned_ JANUS_GUARDED_BY(mutex_) = 0;
  /// Pareto frontier of proven-unrealizable dimensions (no entry dominates
  /// another; inserts drop newly dominated entries).
  std::vector<lattice::dims> unsat_frontier_ JANUS_GUARDED_BY(mutex_);
};

}  // namespace janus::lm
