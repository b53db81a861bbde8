// Stress and regression tests for the SAT solver: clause-database churn,
// garbage collection, budget resumption, structured UNSAT families,
// binary-heavy formulas against brute force, and the sequential at-most-one
// encoding.
#include <gtest/gtest.h>

#include <algorithm>

#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace janus::sat {
namespace {

/// XOR chain x0 ^ x1 ^ … ^ x_{n-1} = parity, as CNF over 3-var steps.
/// With both parities asserted it is UNSAT.
cnf xor_chain_contradiction(int n) {
  cnf f;
  f.new_vars(n);
  std::vector<var> acc;  // accumulator variables
  var prev = 0;
  for (int i = 1; i < n; ++i) {
    const var next = f.new_var();  // next = prev XOR x_i
    const lit p = lit::make(prev);
    const lit x = lit::make(i);
    const lit t = lit::make(next);
    f.add_ternary(~p, ~x, ~t);
    f.add_ternary(~p, x, t);
    f.add_ternary(p, ~x, t);
    f.add_ternary(p, x, ~t);
    prev = next;
  }
  // Force every input to a value with even parity, then assert odd parity.
  for (int i = 0; i < n; ++i) {
    f.add_unit(lit::make(i, true));
  }
  f.add_unit(lit::make(prev));
  return f;
}

TEST(SolverStress, XorChainContradictionsAreUnsat) {
  for (int n : {4, 16, 64}) {
    solver s;
    s.add_cnf(xor_chain_contradiction(n));
    EXPECT_EQ(s.solve(), solve_result::unsat) << n;
  }
}

TEST(SolverStress, ManySolveCallsWithGrowingFormula) {
  // Incremental usage: keep adding constraints and re-solving; exercises
  // top-level simplification and learnt-clause retention across calls.
  solver s;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    s.new_var();
  }
  rng r(7);
  int remaining_sat = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(lit::make(
          static_cast<var>(r.next_below(n)), r.next_bool()));
    }
    if (!s.add_clause(clause)) {
      break;
    }
    if (s.solve() == solve_result::sat) {
      ++remaining_sat;
    } else {
      break;
    }
  }
  EXPECT_GT(remaining_sat, 10);
}

TEST(SolverStress, GarbageCollectionSurvivesHeavyChurn) {
  // Aggressive reduction forces repeated arena compaction; the planted model
  // must still be found and every learnt clause must stay sound.
  rng r(11);
  const int nv = 250;
  std::vector<bool> hidden(static_cast<std::size_t>(nv));
  for (int v = 0; v < nv; ++v) {
    hidden[static_cast<std::size_t>(v)] = r.next_bool();
  }
  cnf f;
  f.new_vars(nv);
  for (int c = 0; c < nv * 5; ++c) {
    std::vector<lit> cl;
    bool ok = false;
    while (!ok) {
      cl.clear();
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<var>(r.next_below(nv));
        const bool neg = r.next_bool();
        cl.push_back(lit::make(v, neg));
        ok |= hidden[static_cast<std::size_t>(v)] != neg;
      }
    }
    f.add_clause(cl);
  }
  solver_options o;
  o.reduce_base = 20;
  o.reduce_increment = 5;
  solver s(o);
  s.add_cnf(f);
  long bad = 0;
  s.on_learnt = [&](std::span<const lit> clause) {
    bool sat_by_hidden = false;
    for (const lit l : clause) {
      sat_by_hidden |= hidden[static_cast<std::size_t>(l.variable())] != l.negated();
    }
    bad += sat_by_hidden ? 0 : 1;
  };
  ASSERT_EQ(s.solve(), solve_result::sat);
  EXPECT_EQ(bad, 0);
  EXPECT_GT(s.stats().removed_clauses, 0u);
}

TEST(SolverStress, BudgetedSolveCanResume) {
  // An exhausted conflict budget yields unknown; raising the budget and
  // re-solving the same solver must reach the real answer.
  cnf f;
  const int holes = 7;
  const int pigeons = holes + 1;
  std::vector<std::vector<lit>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(lit::make(f.new_var()));
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    f.add_clause(in[static_cast<std::size_t>(p)]);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.add_binary(~in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
                     ~in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]);
      }
    }
  }
  solver s;
  s.add_cnf(f);
  s.set_conflict_budget(5);
  ASSERT_EQ(s.solve(), solve_result::unknown);
  s.set_conflict_budget(-1);
  EXPECT_EQ(s.solve(), solve_result::unsat);
}

TEST(SolverStress, AssumptionSweepOverPlantedInstance) {
  // For a satisfiable instance, assuming each hidden value must stay SAT;
  // assuming the complement of a forced variable must flip to UNSAT only
  // when it truly contradicts.
  rng r(13);
  const int nv = 40;
  cnf f;
  f.new_vars(nv);
  std::vector<bool> hidden(static_cast<std::size_t>(nv));
  for (int v = 0; v < nv; ++v) {
    hidden[static_cast<std::size_t>(v)] = r.next_bool();
  }
  for (int c = 0; c < nv * 4; ++c) {
    std::vector<lit> cl;
    bool ok = false;
    while (!ok) {
      cl.clear();
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<var>(r.next_below(nv));
        const bool neg = r.next_bool();
        cl.push_back(lit::make(v, neg));
        ok |= hidden[static_cast<std::size_t>(v)] != neg;
      }
    }
    f.add_clause(cl);
  }
  solver s;
  s.add_cnf(f);
  std::vector<lit> assume;
  for (int v = 0; v < nv; v += 5) {
    assume.push_back(lit::make(v, !hidden[static_cast<std::size_t>(v)]));
  }
  EXPECT_EQ(s.solve(assume), solve_result::sat);
  for (const lit a : assume) {
    EXPECT_EQ(s.model_value(a), lbool::true_value);
  }
}

// --- binary-heavy formulas against brute force ------------------------------

/// Sets of assignments to `num_vars` variables as bitsets: bit m stands for
/// the assignment giving variable v the value of bit v of m. A formula's
/// models are the AND of its clauses' sets, so brute force costs a few word
/// operations per assignment.
class assignment_space {
 public:
  using set = std::vector<std::uint64_t>;

  explicit assignment_space(int num_vars) {
    const std::size_t count = std::size_t{1} << num_vars;
    for (int code = 0; code < 2 * num_vars; ++code) {
      const lit l = lit::from_code(code);
      set& s = literal_sets_.emplace_back(count / 64, 0);
      for (std::size_t m = 0; m < count; ++m) {
        if ((((m >> l.variable()) & 1) != 0) != l.negated()) {
          s[m / 64] |= std::uint64_t{1} << (m % 64);
        }
      }
    }
  }

  [[nodiscard]] set models(const cnf& f) const {
    set out(literal_sets_[0].size(), ~std::uint64_t{0});
    for (std::size_t i = 0; i < f.num_clauses(); ++i) {
      set clause(out.size(), 0);
      for (const lit l : f.clause(i)) {
        const set& ls = literal_sets_[static_cast<std::size_t>(l.code())];
        for (std::size_t w = 0; w < out.size(); ++w) {
          clause[w] |= ls[w];
        }
      }
      for (std::size_t w = 0; w < out.size(); ++w) {
        out[w] &= clause[w];
      }
    }
    return out;
  }

  /// True if some assignment in `models` makes every literal of `lits` true.
  [[nodiscard]] bool satisfiable(const set& models,
                                 std::span<const lit> lits) const {
    for (std::size_t w = 0; w < models.size(); ++w) {
      std::uint64_t word = models[w];
      for (const lit l : lits) {
        word &= literal_sets_[static_cast<std::size_t>(l.code())][w];
      }
      if (word != 0) {
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<set> literal_sets_;
};

TEST(SolverStress, BinaryHeavyFormulasAgreeWithBruteForce) {
  // Each formula is a random core over kCore variables, answered under
  // assumptions and checked by brute force, plus a satisfiable padding that
  // gives every call real search: a planted 3-colouring of a random graph
  // near the colouring threshold. Both parts are mostly binary, so
  // propagation runs through binary watchers and the trail is full of binary
  // reasons: the core's on the assumption levels, the padding's from the
  // search. A tiny reduce_base makes learnt-clause reduction and arena
  // garbage collection run while those reasons are live.
  constexpr int kCore = 16;
  constexpr int kVertices = 200;
  const assignment_space space(kCore);
  rng r(17);
  solver_options o;
  o.reduce_base = 2;
  o.reduce_increment = 1;
  std::uint64_t removed = 0;
  for (int iter = 0; iter < 10; ++iter) {
    cnf core;
    core.new_vars(kCore);
    const int core_clauses = 12 + static_cast<int>(r.next_below(14));
    for (int c = 0; c < core_clauses; ++c) {
      std::vector<lit> cl;
      const int len = r.next_below(10) < 8 ? 2 : 3;
      for (int k = 0; k < len; ++k) {
        cl.push_back(lit::make(static_cast<var>(r.next_below(kCore)), r.next_bool()));
      }
      core.add_clause(cl);
    }
    // Padding: vertex u takes colour c when x(u, c); one at-least-one and
    // three at-most-one clauses per vertex, three clauses per edge.
    std::vector<std::uint64_t> colour(kVertices);
    for (std::uint64_t& c : colour) {
      c = r.next_below(3);
    }
    const auto x = [](std::uint64_t vertex, int c) {
      return lit::make(static_cast<var>(kCore + 3 * static_cast<int>(vertex) + c));
    };
    cnf f = core;
    f.new_vars(3 * kVertices);
    for (std::uint64_t u = 0; u < kVertices; ++u) {
      f.add_ternary(x(u, 0), x(u, 1), x(u, 2));
      f.add_binary(~x(u, 0), ~x(u, 1));
      f.add_binary(~x(u, 0), ~x(u, 2));
      f.add_binary(~x(u, 1), ~x(u, 2));
    }
    for (int edges = 0; edges < kVertices * 23 / 10;) {
      const std::uint64_t u = r.next_below(kVertices);
      const std::uint64_t v = r.next_below(kVertices);
      if (colour[u] != colour[v]) {
        for (int c = 0; c < 3; ++c) {
          f.add_binary(~x(u, c), ~x(v, c));
        }
        ++edges;
      }
    }
    std::size_t binary = 0;
    for (std::size_t i = 0; i < f.num_clauses(); ++i) {
      binary += f.clause(i).size() == 2 ? 1 : 0;
    }
    ASSERT_GE(binary * 10, f.num_clauses() * 7);
    const assignment_space::set models = space.models(core);
    solver s(o);
    s.add_cnf(f);
    for (int call = 0; call < 20; ++call) {
      std::vector<lit> assume;
      const int count = static_cast<int>(r.next_below(7));
      for (int k = 0; k < count; ++k) {
        assume.push_back(lit::make(static_cast<var>(r.next_below(kCore)), r.next_bool()));
      }
      s.decay_heuristics();  // forget the last model's phases
      const solve_result res = s.solve(assume);
      ASSERT_NE(res, solve_result::unknown);
      ASSERT_EQ(res == solve_result::sat, space.satisfiable(models, assume))
          << "iter " << iter << " call " << call;
      if (res == solve_result::sat) {
        for (const lit a : assume) {
          ASSERT_EQ(s.model_value(a), lbool::true_value);
        }
        for (std::size_t i = 0; i < f.num_clauses(); ++i) {
          bool sat = false;
          for (const lit l : f.clause(i)) {
            sat |= s.model_value(l) == lbool::true_value;
          }
          ASSERT_TRUE(sat) << "iter " << iter << " call " << call;
        }
        continue;
      }
      // A valid core: negations of assumptions that are unsatisfiable with
      // the formula on their own.
      std::vector<lit> core_assumptions;
      for (const lit c : s.conflict_core()) {
        ASSERT_NE(std::find(assume.begin(), assume.end(), ~c), assume.end());
        core_assumptions.push_back(~c);
      }
      ASSERT_FALSE(space.satisfiable(models, core_assumptions))
          << "iter " << iter << " call " << call;
      if (!s.okay()) {
        break;  // the core itself is unsat
      }
    }
    removed += s.stats().removed_clauses;
  }
  EXPECT_GT(removed, 0u);
}

}  // namespace
}  // namespace janus::sat
