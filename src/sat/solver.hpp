// A CDCL SAT solver in the MiniSat / glucose family.
//
// The paper solves each lattice-mapping (LM) instance with glucose 4.1 under a
// wall-clock limit, treating a timeout as "unrealizable". This solver provides
// the same verdict contract — solve() returns sat / unsat / unknown, where
// unknown means a budget (time, conflicts or propagations) expired or the
// external stop flag fired — and, like glucose, it is *incremental*: one
// instance answers a whole sequence of solve(assumptions) calls over a
// growing formula (the dichotomic ladder drives it through lm::lm_session).
//
// The incremental contract:
//   * What persists across solve() calls: the clause database including every
//     learned clause (subject to the usual LBD-based reduction), variable
//     activities, saved phases, and the cumulative `stats()` counters. A
//     later call on a related instance therefore starts from everything the
//     earlier calls derived — this is the whole point of session reuse.
//   * When add_clause()/add_cnf()/new_var() are legal: any time between
//     solve() calls and before the first one. Every solve() call ends at
//     decision level 0, so a clause added between calls needs no backtrack
//     and the next call re-decides its assumptions from level 0, even when
//     no clause was added and the calls share an assumption prefix (the
//     ESOP backend's ladder re-solves that way). Never call it from inside
//     a solve().
//   * Assumption lifetime: the `assumptions` span is copied at the start of
//     solve() and holds for that call only; the next call starts from a clean
//     slate. After an unsat answer, conflict_core() names the subset of the
//     call's assumptions (negated) that the refutation actually used; it is
//     invalidated by the next solve().
//   * unknown is non-destructive: a cancelled or out-of-budget call keeps
//     every learned clause, so re-solving after an aborted attempt resumes
//     from the knowledge already paid for (asserted by
//     tests/test_incremental.cpp).
//   * solve() with an empty assumption set that returns unsat makes the
//     solver permanently unsat (`okay()` turns false): the formula itself is
//     contradictory and no later call can succeed. Assumption-relative unsat
//     answers do NOT poison the solver.
//   * Inprocessing (off by default, see solver_options::inprocess) adds no
//     rule: its rounds never remove a variable, so any variable may appear
//     in a later clause or assumption. See docs/solver.md.
//
// Implemented techniques:
//   * two-literal watching with blocker literals; binary clauses propagate
//     from the watcher alone, without reading the clause arena,
//   * per-literal value bytes (no sign branch on a value check),
//   * first-UIP conflict analysis with basic (self-subsumption) minimization,
//   * VSIDS variable activities with phase saving,
//   * glucose-style LBD-EMA restarts,
//   * tiered learned-clause management (core / tier2 / local by LBD, with
//     usage-protected tier2 clauses),
//   * top-level simplification (skipped when no new level-0 fact or
//     original clause arrived since the last sweep) and arena garbage
//     collection,
//   * solving under assumptions (with final-conflict extraction),
//   * inprocessing (sat/simplify.hpp): level-0 cleanup rounds and
//     learnt-clause vivification.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sat/cnf.hpp"
#include "sat/types.hpp"
#include "util/timer.hpp"

namespace janus::sat {

enum class solve_result : std::uint8_t { sat, unsat, unknown };

/// Counters exposed for benchmarking and tests.
struct solver_stats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t removed_clauses = 0;
  std::uint64_t minimized_literals = 0;
  // Inprocessing counter (sat/simplify.cpp).
  std::uint64_t vivified = 0;  ///< learned clauses shrunk by vivification
};

/// Accumulate counters across solver instances (per-probe and
/// per-batch-target aggregation in the parallel engine).
inline solver_stats& operator+=(solver_stats& lhs, const solver_stats& rhs) {
  lhs.decisions += rhs.decisions;
  lhs.propagations += rhs.propagations;
  lhs.conflicts += rhs.conflicts;
  lhs.restarts += rhs.restarts;
  lhs.learned_clauses += rhs.learned_clauses;
  lhs.removed_clauses += rhs.removed_clauses;
  lhs.minimized_literals += rhs.minimized_literals;
  lhs.vivified += rhs.vivified;
  return lhs;
}

/// Counter delta between two snapshots of ONE solver's cumulative stats()
/// (`after - before`); incremental sessions use it to attribute work to the
/// individual solve() call in between. `after` must dominate `before`.
inline solver_stats operator-(const solver_stats& after,
                              const solver_stats& before) {
  solver_stats d;
  d.decisions = after.decisions - before.decisions;
  d.propagations = after.propagations - before.propagations;
  d.conflicts = after.conflicts - before.conflicts;
  d.restarts = after.restarts - before.restarts;
  d.learned_clauses = after.learned_clauses - before.learned_clauses;
  d.removed_clauses = after.removed_clauses - before.removed_clauses;
  d.minimized_literals = after.minimized_literals - before.minimized_literals;
  d.vivified = after.vivified - before.vivified;
  return d;
}

/// The settable part of the solver configuration. Everything else (decay
/// factors, the tier boundary, the inprocessing caps) is a fixed constant of
/// solver.cpp / simplify.cpp; docs/solver.md lists the values.
struct solver_options {
  int reduce_base = 2000;          // first learned-DB reduction, in conflicts
  int reduce_increment = 300;      // growth per reduction

  // Inprocessing (sat/simplify.hpp). Off by default, so a bare solver runs
  // the plain CDCL loop. The LM layer turns it on (default_lm_solver_options)
  // and the ESOP and chain backends inherit the LM setting. It needs no
  // caller protocol: no round removes a variable.
  bool inprocess = false;
  /// Conflicts between inprocessing rounds (0 = every restart boundary).
  int inprocess_interval = 4000;
};

class simplifier;

class solver {
 public:
  solver() = default;
  explicit solver(solver_options options) : options_(options) {}

  solver(const solver&) = delete;
  solver& operator=(const solver&) = delete;

  /// Allocate a fresh solver variable.
  var new_var();
  [[nodiscard]] int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Add a clause; returns false if the formula became trivially unsat.
  /// Legal before the first solve() and between solve() calls — the hook
  /// incremental sessions use to extend the formula with new guarded clause
  /// groups mid-ladder.
  bool add_clause(std::span<const lit> lits);
  bool add_clause(std::initializer_list<lit> lits);

  /// Load a whole CNF (allocates variables as needed). Same legality rule as
  /// add_clause(); clauses over already-existing variables compose with
  /// everything learned so far.
  bool add_cnf(const cnf& formula);

  /// Soften heuristic state between related solve() calls: scales every
  /// VSIDS activity down so the old ordering survives only as a tie-break
  /// under the next call's fresh bumps, resets the bump increment, and
  /// (optionally) resets saved phases to the default polarity. Incremental
  /// sessions call this between dimension probes so stale heuristic state
  /// from a distant probe cannot poison the next one.
  void decay_heuristics(bool rephase = true);

  /// Budgets: any expired budget makes solve() return `unknown`.
  void set_conflict_budget(std::int64_t conflicts) { conflict_budget_ = conflicts; }
  void set_propagation_budget(std::int64_t props) { propagation_budget_ = props; }
  void set_deadline(deadline d) { deadline_ = d; }

  /// External stop flag, polled inside the budget checks (per conflict and
  /// every 256 decisions). Raising it makes an in-flight solve() return
  /// `unknown` promptly — the cancellation hook the parallel execution
  /// engine uses when a racing sibling already answered. The flag must
  /// outlive the solve() call; nullptr (the default) disables the check.
  void set_stop_flag(const std::atomic<bool>* stop) { stop_ = stop; }
  [[nodiscard]] bool stopped_externally() const {
    return stop_ != nullptr && stop_->load(std::memory_order_relaxed);
  }

  /// Decide the current formula (optionally under assumptions). May be
  /// called repeatedly; learned clauses, activities and phases carry over
  /// from call to call. Budgets (`set_*_budget`, `set_deadline`) apply per
  /// call, measured from the call's starting counters. The assumption span
  /// only needs to live for the duration of the call.
  [[nodiscard]] solve_result solve() { return solve({}); }
  [[nodiscard]] solve_result solve(std::span<const lit> assumptions);

  /// Model access after solve() == sat.
  [[nodiscard]] lbool model_value(var v) const;
  [[nodiscard]] bool model_bool(var v) const {
    return model_value(v) == lbool::true_value;
  }
  [[nodiscard]] lbool model_value(lit l) const {
    return apply_sign(model_value(l.variable()), l.negated());
  }

  /// Subset of the assumptions sufficient for unsatisfiability, after
  /// solve(assumptions) == unsat (the "final conflict": each entry is the
  /// negation of one assumption that the refutation used). Valid until the
  /// next solve() call. An empty core means the formula is unsat regardless
  /// of any assumptions. lm_session reads it to tell rule-induced UNSAT from
  /// genuine unrealizability (core-guided dimension pruning).
  [[nodiscard]] const std::vector<lit>& conflict_core() const { return conflict_core_; }

  [[nodiscard]] const solver_stats& stats() const { return stats_; }
  [[nodiscard]] bool okay() const { return ok_; }

  /// Test/debug observation point: invoked with every learnt clause. Sound
  /// CDCL only derives clauses implied by the formula, so tests register a
  /// checker here and assert each learnt clause against a known model.
  std::function<void(std::span<const lit>)> on_learnt;

 private:
  friend class simplifier;

  using clause_ref = std::uint32_t;
  static constexpr clause_ref cr_undef = 0xffffffffu;
  /// Set on the clause_ref of a watcher whose clause is binary: its blocker
  /// is the clause's other literal, so propagate() never reads the arena.
  /// Clause refs therefore stay below 2^31 (checked in alloc_clause).
  static constexpr clause_ref binary_tag = 0x80000000u;

  // --- clause arena -------------------------------------------------------
  // Layout per clause: header | [activity, lbd if learnt] | literal codes.
  // header = size << 3 | has_extra << 1 | deleted. The lbd word packs a
  // 2-bit usage counter (tier2 protection) into its top bits.
  struct header_view {
    std::uint32_t raw;
    [[nodiscard]] std::uint32_t size() const { return raw >> 3; }
    [[nodiscard]] bool learnt() const { return (raw >> 1) & 1u; }
    [[nodiscard]] bool deleted() const { return raw & 1u; }
  };
  static constexpr std::uint32_t lbd_mask = 0x3fffffffu;

  clause_ref alloc_clause(std::span<const lit> lits, bool learnt);
  [[nodiscard]] std::uint32_t clause_size(clause_ref c) const {
    return arena_[c] >> 3;
  }
  [[nodiscard]] bool clause_learnt(clause_ref c) const {
    return (arena_[c] >> 1) & 1u;
  }
  [[nodiscard]] bool clause_deleted(clause_ref c) const { return arena_[c] & 1u; }
  [[nodiscard]] lit* clause_lits(clause_ref c) {
    return reinterpret_cast<lit*>(&arena_[c + 1 + (clause_learnt(c) ? 2 : 0)]);
  }
  [[nodiscard]] const lit* clause_lits(clause_ref c) const {
    return reinterpret_cast<const lit*>(
        &arena_[c + 1 + (clause_learnt(c) ? 2 : 0)]);
  }
  [[nodiscard]] std::span<const lit> clause_span(clause_ref c) const {
    return {clause_lits(c), clause_size(c)};
  }
  [[nodiscard]] float& clause_activity(clause_ref c) {
    return reinterpret_cast<float&>(arena_[c + 1]);
  }
  [[nodiscard]] std::uint32_t clause_lbd(clause_ref c) const {
    return arena_[c + 2] & lbd_mask;
  }
  void set_clause_lbd(clause_ref c, std::uint32_t lbd) {
    arena_[c + 2] = (arena_[c + 2] & ~lbd_mask) | std::min(lbd, lbd_mask);
  }
  [[nodiscard]] std::uint32_t clause_usage(clause_ref c) const {
    return arena_[c + 2] >> 30;
  }
  void bump_clause_usage(clause_ref c) {
    if (clause_usage(c) < 3) {
      arena_[c + 2] += (1u << 30);
    }
  }
  void decay_clause_usage(clause_ref c) {
    if (clause_usage(c) > 0) {
      arena_[c + 2] -= (1u << 30);
    }
  }

  // --- assignment / trail -------------------------------------------------
  [[nodiscard]] lbool value(var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] lbool value(lit l) const { return lit_values_[static_cast<std::size_t>(l.code())]; }
  [[nodiscard]] int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  [[nodiscard]] int level(var v) const { return level_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] bool locked(clause_ref c) const;
  /// Literals of reason clause `c` with the literal it implied at position
  /// 0, where conflict analysis expects it. Only binary reasons can be out
  /// of order (propagate() implies through them without reordering their
  /// literals); they are turned in place, restoring the order a full clause
  /// visit leaves.
  [[nodiscard]] const lit* reason_lits(clause_ref c, lit implied);

  void unchecked_enqueue(lit p, clause_ref from);
  [[nodiscard]] clause_ref propagate();
  void cancel_until(int target_level);
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }

  // --- conflict analysis --------------------------------------------------
  void analyze(clause_ref confl, std::vector<lit>& out_learnt, int& out_btlevel,
               std::uint32_t& out_lbd);
  [[nodiscard]] bool literal_redundant(lit p);
  void analyze_final(lit p);
  [[nodiscard]] std::uint32_t compute_lbd(std::span<const lit> lits);

  // --- heuristics ---------------------------------------------------------
  void var_bump_activity(var v);
  void clause_bump_activity(clause_ref c);
  [[nodiscard]] lit pick_branch_lit();

  // indexed binary max-heap over variable activities
  void heap_insert(var v);
  void heap_update(var v);
  [[nodiscard]] var heap_pop();
  [[nodiscard]] bool heap_contains(var v) const {
    return heap_index_[static_cast<std::size_t>(v)] >= 0;
  }
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  [[nodiscard]] bool heap_less(var a, var b) const {
    return activity_[static_cast<std::size_t>(a)] > activity_[static_cast<std::size_t>(b)];
  }

  // --- clause DB management ----------------------------------------------
  void attach_clause(clause_ref c);
  void detach_clause(clause_ref c);
  void remove_clause(clause_ref c);
  void reduce_learnts();
  void simplify_top_level();
  void garbage_collect_if_needed();
  void garbage_collect();

  // --- search -------------------------------------------------------------
  [[nodiscard]] solve_result search();
  [[nodiscard]] bool budget_expired() const;
  /// Backtrack target that keeps the assumption levels alive (the budget
  /// and stop exits of search() unwind to it; solve() then ends at level 0).
  [[nodiscard]] int assumption_root_level() const {
    return std::min(decision_level(), static_cast<int>(assumptions_.size()));
  }

  // --- data ----------------------------------------------------------------
  solver_options options_;
  solver_stats stats_;
  bool ok_ = true;

  std::vector<std::uint32_t> arena_;
  std::size_t arena_wasted_ = 0;
  std::vector<clause_ref> clauses_;
  std::vector<clause_ref> learnts_;

  struct watcher {
    clause_ref cref;
    lit blocker;
  };
  std::vector<std::vector<watcher>> watches_;  // indexed by lit code

  std::vector<lbool> assigns_;
  std::vector<lbool> lit_values_;  // value per lit code, in step with assigns_
  std::vector<std::uint8_t> saved_phase_;
  std::vector<int> level_;
  std::vector<clause_ref> reason_;
  std::vector<lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<var> heap_;
  std::vector<int> heap_index_;

  std::vector<std::uint8_t> seen_;
  std::vector<lit> analyze_stack_;
  std::vector<lit> analyze_to_clear_;
  std::vector<std::uint64_t> lbd_seen_;
  std::uint64_t lbd_stamp_ = 0;

  std::vector<lit> assumptions_;
  std::vector<lit> conflict_core_;
  std::vector<lbool> model_;

  // Inprocessing state (see sat/simplify.cpp).
  bool cleaned_up_ = false;           ///< first (cleanup-only) round ran
  bool inprocess_scheduled_ = false;  ///< first round booked (see solve())
  std::uint64_t next_inprocess_ = 0;

  // glucose-style restart policy state
  double lbd_ema_fast_ = 0.0;
  double lbd_ema_slow_ = 0.0;

  const std::atomic<bool>* stop_ = nullptr;  // external cancellation, not owned
  std::int64_t conflict_budget_ = -1;     // -1: unlimited
  std::int64_t propagation_budget_ = -1;  // -1: unlimited
  std::int64_t conflict_limit_abs_ = -1;
  std::int64_t propagation_limit_abs_ = -1;
  deadline deadline_{};
  bool deadline_hit_ = false;
  std::uint64_t next_reduce_ = 0;
  int reductions_done_ = 0;

  // simplify_top_level() sweep guard: level-0 trail size at the last sweep,
  // and whether an original clause was allocated since.
  std::size_t swept_trail_size_ = 0;
  bool originals_since_sweep_ = false;
};

}  // namespace janus::sat
