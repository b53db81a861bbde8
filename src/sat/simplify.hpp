// Inprocessing engine for sat::solver.
//
// Two entry points, both invoked by solver::solve() at decision level 0:
//
//   * preprocess() — once per solver lifetime, before the first search:
//     top-level cleanup and bounded variable elimination (BVE). BVE runs
//     ONLY here: a clause added after the first solve() may mention any
//     unfrozen variable, so elimination cannot soundly repeat. Incremental
//     sessions freeze every interface variable (activation literals,
//     encoding variables future clause groups reference); scratch solves
//     freeze nothing and get the full reduction.
//
//   * inprocess() — at restart boundaries on a conflict-count schedule:
//     cleanup and vivification of high-LBD learned clauses.
//
// Frozen variables (solver::freeze) are exempt from elimination, which
// keeps assumption literals and final-conflict extraction sound; see
// docs/solver.md for the protocol.
//
// A simplifier is a stack-constructed friend of the solver: persistent
// state (frozen/eliminated flags, the model reconstruction stack,
// scheduling counters) lives on the solver, while this class only holds
// per-round scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/occurrence.hpp"
#include "sat/solver.hpp"

namespace janus::sat {

class simplifier {
 public:
  explicit simplifier(solver& s) : s_(s) {}

  simplifier(const simplifier&) = delete;
  simplifier& operator=(const simplifier&) = delete;

  /// One-time preprocessing pass (see file comment). May set okay() false
  /// when simplification refutes the formula.
  void preprocess();

  /// One restart-boundary inprocessing round (see file comment). Never
  /// eliminates variables. May set okay() false.
  void inprocess();

 private:
  // round plumbing
  [[nodiscard]] bool settle();
  void cleanup_list(std::vector<solver::clause_ref>& list);
  void clear_level0_reasons();
  void index_clause(solver::clause_ref c);
  void finish();

  // bounded variable elimination
  void eliminate_variables();
  void try_eliminate(var v);
  void gather(lit l, std::vector<solver::clause_ref>& out);
  [[nodiscard]] bool resolve_pair(solver::clause_ref p, solver::clause_ref n,
                                  var v, std::vector<lit>& out);

  // vivification
  void vivify_learnts();

  // stamping helpers (lit-code indexed)
  void next_stamp() { ++stamp_; }
  void stamp(lit l) { lit_stamp_[static_cast<std::size_t>(l.code())] = stamp_; }
  [[nodiscard]] bool stamped(lit l) const {
    return lit_stamp_[static_cast<std::size_t>(l.code())] == stamp_;
  }

  solver& s_;
  occurrence_index occ_;
  std::vector<std::uint64_t> lit_stamp_;
  std::uint64_t stamp_ = 0;
  std::vector<solver::clause_ref> pos_;  // per-var scratch for BVE
  std::vector<solver::clause_ref> neg_;
  std::vector<std::vector<lit>> resolvents_;
  std::vector<lit> tmp_;
};

}  // namespace janus::sat
