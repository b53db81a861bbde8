// A CNF formula under construction.
//
// Encoders (the LM encodings in src/lm) build a `cnf` first; the solver then
// loads it. Keeping the formula separate from the solver lets us (a) compare
// the complexity of alternative encodings before choosing which to solve — the
// paper picks the primal or dual LM encoding by #vars × #clauses — and
// (b) serialize to DIMACS for external inspection.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace janus::sat {

/// A CNF formula: a variable pool plus a list of clauses.
class cnf {
 public:
  /// Allocate a fresh variable, optionally tagged with a debug name.
  var new_var();
  var new_var(std::string name);

  /// Allocate `n` fresh variables; returns the first.
  var new_vars(int n);

  /// Raise the variable count to at least `n`. Incremental sessions use this
  /// to start a delta formula's numbering above an existing solver's
  /// variables, so the delta's clauses may reference both old and new vars
  /// and solver::add_cnf loads it without renumbering.
  void ensure_vars(int n) { num_vars_ = std::max(num_vars_, n); }

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] std::size_t num_clauses() const { return clause_starts_.size(); }
  [[nodiscard]] std::size_t num_literals() const { return literals_.size(); }

  /// Product used by the paper to compare encoding complexity.
  [[nodiscard]] std::uint64_t complexity() const {
    return static_cast<std::uint64_t>(num_vars()) *
           static_cast<std::uint64_t>(num_clauses());
  }

  void add_clause(std::span<const lit> lits);
  void add_clause(std::initializer_list<lit> lits);
  void add_unit(lit a) { add_clause({a}); }
  void add_binary(lit a, lit b) { add_clause({a, b}); }
  void add_ternary(lit a, lit b, lit c) { add_clause({a, b, c}); }

  /// a -> b as the clause (~a | b).
  void add_implies(lit a, lit b) { add_binary(~a, b); }

  /// At least one of `lits` is true.
  void at_least_one(std::span<const lit> lits) { add_clause(lits); }

  /// At most one of `lits` is true (pairwise encoding; fine for the small
  /// groups JANUS produces — one group per lattice cell).
  void at_most_one_pairwise(std::span<const lit> lits);

  /// Exactly one of `lits` is true.
  void exactly_one(std::span<const lit> lits);

  /// Tseitin AND: returns t with t <-> AND(lits).
  lit add_and(std::span<const lit> lits);

  /// Tseitin OR: returns t with t <-> OR(lits).
  lit add_or(std::span<const lit> lits);

  /// Clause access: clause i as a span over the literal pool.
  [[nodiscard]] std::span<const lit> clause(std::size_t i) const;

  /// Name of a variable ("" when unnamed); for diagnostics only.
  [[nodiscard]] const std::string& var_name(var v) const;

 private:
  int num_vars_ = 0;
  std::vector<lit> literals_;               // all clauses, concatenated
  std::vector<std::uint32_t> clause_starts_;  // start offset of each clause
  std::vector<std::string> names_;          // sparse: resized on demand
  static const std::string empty_name_;
};

}  // namespace janus::sat
