// Inprocessing engine for sat::solver.
//
// Two entry points, both invoked by solver::solve() at decision level 0 on a
// conflict-count schedule (docs/solver.md):
//
//   * cleanup() — the first round: top-level cleanup only (propagate the
//     level-0 facts, drop satisfied clauses, strip false literals).
//
//   * inprocess() — every later round: cleanup plus vivification of
//     high-LBD learned clauses.
//
// Neither round removes a variable from the formula, so every variable stays
// valid in later add_clause() calls, as an assumption and in conflict_core()
// output; no caller protocol is needed.
//
// A simplifier is a stack-constructed friend of the solver: persistent
// state (scheduling counters) lives on the solver, while this class only
// holds per-round scratch.
#pragma once

#include <vector>

#include "sat/solver.hpp"

namespace janus::sat {

class simplifier {
 public:
  explicit simplifier(solver& s) : s_(s) {}

  simplifier(const simplifier&) = delete;
  simplifier& operator=(const simplifier&) = delete;

  /// Cleanup-only round (see file comment). May set okay() false when the
  /// level-0 facts refute the formula.
  void cleanup();

  /// Cleanup plus vivification (see file comment). May set okay() false.
  void inprocess();

 private:
  // round plumbing
  [[nodiscard]] bool settle();
  void cleanup_list(std::vector<solver::clause_ref>& list);
  void clear_level0_reasons();
  void finish();

  // vivification
  void vivify_learnts();

  solver& s_;
};

}  // namespace janus::sat
