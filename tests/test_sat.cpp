// Tests for the CDCL SAT solver and CNF toolkit.
//
// The solver is validated three ways: against brute force on random small
// formulas, against planted solutions on larger formulas (where every learnt
// clause is additionally checked for soundness via the on_learnt hook), and
// on structured families with known status (pigeonhole).
#include <gtest/gtest.h>

#include <vector>

#include "sat/cnf.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace janus::sat {
namespace {

bool brute_force_sat(const cnf& f) {
  const int n = f.num_vars();
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
    bool all = true;
    for (std::size_t i = 0; i < f.num_clauses() && all; ++i) {
      bool clause_sat = false;
      for (const lit l : f.clause(i)) {
        const bool value = ((m >> l.variable()) & 1) != 0;
        if (value != l.negated()) {
          clause_sat = true;
          break;
        }
      }
      all = clause_sat;
    }
    if (all) {
      return true;
    }
  }
  return false;
}

bool model_satisfies(const solver& s, const cnf& f) {
  for (std::size_t i = 0; i < f.num_clauses(); ++i) {
    bool clause_sat = false;
    for (const lit l : f.clause(i)) {
      if (s.model_value(l) == lbool::true_value) {
        clause_sat = true;
        break;
      }
    }
    if (!clause_sat) {
      return false;
    }
  }
  return true;
}

/// Pigeonhole principle: n+1 pigeons in n holes — UNSAT.
cnf pigeonhole(int holes) {
  cnf f;
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
  return f;
}

TEST(Lit, EncodingRoundTrips) {
  const lit a = lit::make(5, false);
  const lit na = lit::make(5, true);
  EXPECT_EQ(a.variable(), 5);
  EXPECT_FALSE(a.negated());
  EXPECT_TRUE(na.negated());
  EXPECT_EQ(~a, na);
  EXPECT_EQ(~na, a);
  EXPECT_EQ(lit::from_code(a.code()), a);
  EXPECT_TRUE(lit_undef.is_undef());
}

TEST(Cnf, CountsVarsAndClauses) {
  cnf f;
  const var a = f.new_var();
  const var b = f.new_var();
  f.add_binary(lit::make(a), lit::make(b, true));
  f.add_unit(lit::make(b));
  EXPECT_EQ(f.num_vars(), 2);
  EXPECT_EQ(f.num_clauses(), 2u);
  EXPECT_EQ(f.num_literals(), 3u);
  EXPECT_EQ(f.complexity(), 4u);
}

TEST(Cnf, ClauseAccessor) {
  cnf f;
  f.new_vars(3);
  f.add_ternary(lit::make(0), lit::make(1), lit::make(2, true));
  const auto c = f.clause(0);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[2], lit::make(2, true));
}

TEST(Cnf, RejectsUnallocatedVariables) {
  cnf f;
  f.new_var();
  EXPECT_THROW(f.add_unit(lit::make(3)), check_error);
}

TEST(Cnf, ExactlyOneSemantics) {
  cnf f;
  f.new_vars(3);
  const std::vector<lit> group = {lit::make(0), lit::make(1), lit::make(2)};
  f.exactly_one(group);
  // Count models by brute force: must be exactly 3.
  int models = 0;
  for (int m = 0; m < 8; ++m) {
    bool ok = true;
    for (std::size_t i = 0; i < f.num_clauses() && ok; ++i) {
      bool cs = false;
      for (const lit l : f.clause(i)) {
        if ((((m >> l.variable()) & 1) != 0) != l.negated()) {
          cs = true;
        }
      }
      ok = cs;
    }
    models += ok;
  }
  EXPECT_EQ(models, 3);
}

TEST(Cnf, TseitinAndOr) {
  for (int bits = 0; bits < 4; ++bits) {
    cnf f;
    f.new_vars(2);
    const std::vector<lit> ins = {lit::make(0), lit::make(1)};
    const lit t_and = f.add_and(ins);
    const lit t_or = f.add_or(ins);
    f.add_unit(lit::make(0, (bits & 1) == 0));
    f.add_unit(lit::make(1, (bits & 2) == 0));
    solver s;
    ASSERT_TRUE(s.add_cnf(f));
    ASSERT_EQ(s.solve(), solve_result::sat);
    const bool a = (bits & 1) != 0;
    const bool b = (bits & 2) != 0;
    EXPECT_EQ(s.model_value(t_and) == lbool::true_value, a && b);
    EXPECT_EQ(s.model_value(t_or) == lbool::true_value, a || b);
  }
}

TEST(Solver, EmptyFormulaIsSat) {
  solver s;
  EXPECT_EQ(s.solve(), solve_result::sat);
}

TEST(Solver, SingleUnit) {
  solver s;
  const var v = s.new_var();
  ASSERT_TRUE(s.add_clause({lit::make(v)}));
  EXPECT_EQ(s.solve(), solve_result::sat);
  EXPECT_TRUE(s.model_bool(v));
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
  solver s;
  const var v = s.new_var();
  s.add_clause({lit::make(v)});
  s.add_clause({lit::make(v, true)});
  EXPECT_EQ(s.solve(), solve_result::unsat);
  EXPECT_FALSE(s.okay());
}

TEST(Solver, TautologicalClauseIgnored) {
  solver s;
  const var v = s.new_var();
  ASSERT_TRUE(s.add_clause({lit::make(v), lit::make(v, true)}));
  EXPECT_EQ(s.solve(), solve_result::sat);
}

TEST(Solver, DuplicateLiteralsCollapse) {
  solver s;
  const var v = s.new_var();
  ASSERT_TRUE(s.add_clause({lit::make(v), lit::make(v)}));
  EXPECT_EQ(s.solve(), solve_result::sat);
  EXPECT_TRUE(s.model_bool(v));
}

TEST(Solver, SimpleImplicationChain) {
  solver s;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    s.new_var();
  }
  for (int i = 0; i + 1 < n; ++i) {
    s.add_clause({lit::make(i, true), lit::make(i + 1)});
  }
  s.add_clause({lit::make(0)});
  ASSERT_EQ(s.solve(), solve_result::sat);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(s.model_bool(i)) << i;
  }
}

TEST(Solver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 5; ++holes) {
    solver s;
    ASSERT_TRUE(s.add_cnf(pigeonhole(holes)));
    EXPECT_EQ(s.solve(), solve_result::unsat) << holes << " holes";
  }
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  solver s;
  s.add_cnf(pigeonhole(8));
  s.set_conflict_budget(10);
  EXPECT_EQ(s.solve(), solve_result::unknown);
}

TEST(Solver, ExpiredDeadlineReturnsUnknown) {
  solver s;
  s.add_cnf(pigeonhole(9));
  s.set_deadline(deadline::in_seconds(0.0));
  EXPECT_EQ(s.solve(), solve_result::unknown);
}

TEST(Solver, AssumptionsSatAndUnsat) {
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  s.add_clause({lit::make(a), lit::make(b)});
  const std::vector<lit> assume_pos = {lit::make(a, true)};
  ASSERT_EQ(s.solve(assume_pos), solve_result::sat);
  EXPECT_TRUE(s.model_bool(b));
  const std::vector<lit> both = {lit::make(a, true), lit::make(b, true)};
  EXPECT_EQ(s.solve(both), solve_result::unsat);
  EXPECT_FALSE(s.conflict_core().empty());
  // The formula itself is still satisfiable after a failed assumption.
  EXPECT_EQ(s.solve(), solve_result::sat);
}

TEST(Solver, ConflictCoreIsSubsetOfAssumptions) {
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  const var c = s.new_var();
  s.add_clause({lit::make(a, true), lit::make(b, true)});
  const std::vector<lit> assumptions = {lit::make(c), lit::make(a),
                                        lit::make(b)};
  ASSERT_EQ(s.solve(assumptions), solve_result::unsat);
  for (const lit l : s.conflict_core()) {
    // Core literals are the negations of failed assumptions.
    EXPECT_TRUE(~l == lit::make(a) || ~l == lit::make(b) || ~l == lit::make(c));
  }
}

struct RandomCnfParam {
  std::uint64_t seed;
  int num_vars;
};

class RandomCnfVsBruteForce : public ::testing::TestWithParam<RandomCnfParam> {};

TEST_P(RandomCnfVsBruteForce, AgreeOnStatusAndModelIsValid) {
  const auto param = GetParam();
  rng r(param.seed);
  for (int iter = 0; iter < 120; ++iter) {
    cnf f;
    f.new_vars(param.num_vars);
    const int clauses =
        param.num_vars + static_cast<int>(r.next_below(
                             static_cast<std::uint64_t>(param.num_vars * 3)));
    for (int c = 0; c < clauses; ++c) {
      std::vector<lit> cl;
      const int len = 1 + static_cast<int>(r.next_below(3));
      for (int k = 0; k < len; ++k) {
        cl.push_back(lit::make(
            static_cast<var>(r.next_below(static_cast<std::uint64_t>(param.num_vars))),
            r.next_bool()));
      }
      f.add_clause(cl);
    }
    solver s;
    s.add_cnf(f);
    const solve_result res = s.solve();
    const bool expected = brute_force_sat(f);
    ASSERT_EQ(res == solve_result::sat, expected) << "iter " << iter;
    if (res == solve_result::sat) {
      ASSERT_TRUE(model_satisfies(s, f)) << "iter " << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomCnfVsBruteForce,
    ::testing::Values(RandomCnfParam{11, 5}, RandomCnfParam{12, 7},
                      RandomCnfParam{13, 9}, RandomCnfParam{14, 11},
                      RandomCnfParam{15, 13}));

TEST(Solver, PlantedSolutionsAreFoundAndLearntClausesAreSound) {
  rng r(99);
  for (int iter = 0; iter < 25; ++iter) {
    const int nv = 80 + static_cast<int>(r.next_below(200));
    const int nc = static_cast<int>(static_cast<double>(nv) * 4.0);
    std::vector<bool> hidden(static_cast<std::size_t>(nv));
    for (int v = 0; v < nv; ++v) {
      hidden[static_cast<std::size_t>(v)] = r.next_bool();
    }
    cnf f;
    f.new_vars(nv);
    for (int c = 0; c < nc; ++c) {
      std::vector<lit> cl;
      bool satisfied = false;
      while (!satisfied) {
        cl.clear();
        for (int k = 0; k < 3; ++k) {
          const auto v = static_cast<var>(r.next_below(static_cast<std::uint64_t>(nv)));
          const bool neg = r.next_bool();
          cl.push_back(lit::make(v, neg));
          satisfied |= hidden[static_cast<std::size_t>(v)] != neg;
        }
      }
      f.add_clause(cl);
    }
    // Aggressive reduction to exercise clause management.
    solver_options o;
    o.reduce_base = 50;
    o.reduce_increment = 20;
    solver s(o);
    s.add_cnf(f);
    long bad_learnts = 0;
    s.on_learnt = [&](std::span<const lit> clause) {
      bool sat_by_hidden = false;
      for (const lit l : clause) {
        if (hidden[static_cast<std::size_t>(l.variable())] != l.negated()) {
          sat_by_hidden = true;
          break;
        }
      }
      bad_learnts += sat_by_hidden ? 0 : 1;
    };
    ASSERT_EQ(s.solve(), solve_result::sat) << "iter " << iter;
    EXPECT_EQ(bad_learnts, 0) << "unsound learnt clause, iter " << iter;
    EXPECT_TRUE(model_satisfies(s, f));
  }
}

TEST(Solver, StatisticsAreTracked) {
  solver s;
  s.add_cnf(pigeonhole(5));
  ASSERT_EQ(s.solve(), solve_result::unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
}

TEST(Solver, ReusableAfterSat) {
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  s.add_clause({lit::make(a), lit::make(b)});
  ASSERT_EQ(s.solve(), solve_result::sat);
  // Add more constraints after a solve; incremental use.
  s.add_clause({lit::make(a, true)});
  ASSERT_EQ(s.solve(), solve_result::sat);
  EXPECT_TRUE(s.model_bool(b));
  s.add_clause({lit::make(b, true)});
  EXPECT_EQ(s.solve(), solve_result::unsat);
}

TEST(Solver, NewTopLevelUnitSweepsTheClausesItSatisfies) {
  // The satisfied-clause sweep at restarts is skipped when no level-0 fact
  // arrived since the last one; a new unit must still trigger it.
  solver s;
  const var a = s.new_var();
  constexpr std::uint64_t k = 6;
  for (std::uint64_t i = 0; i < k; ++i) {
    const var b = s.new_var();
    const var c = s.new_var();
    s.add_clause({lit::make(a), lit::make(b), lit::make(c, true)});
    s.add_clause({lit::make(b, true), lit::make(c)});
  }
  ASSERT_EQ(s.solve(), solve_result::sat);
  s.add_clause({lit::make(a)});
  const std::uint64_t before = s.stats().removed_clauses;
  ASSERT_EQ(s.solve(), solve_result::sat);
  EXPECT_GE(s.stats().removed_clauses - before, k);
  const std::uint64_t after = s.stats().removed_clauses;
  ASSERT_EQ(s.solve(), solve_result::sat);
  EXPECT_EQ(s.stats().removed_clauses, after);
}

TEST(Dimacs, RoundTrip) {
  cnf f;
  f.new_vars(4);
  f.add_ternary(lit::make(0), lit::make(1, true), lit::make(3));
  f.add_binary(lit::make(2), lit::make(0, true));
  const std::string text = write_dimacs_string(f);
  const cnf g = read_dimacs_string(text);
  ASSERT_EQ(g.num_vars(), 4);
  ASSERT_EQ(g.num_clauses(), 2u);
  EXPECT_EQ(g.clause(0)[1], lit::make(1, true));
  EXPECT_EQ(g.clause(1)[0], lit::make(2));
}

TEST(Dimacs, ParsesCommentsAndBlankLines) {
  const cnf f = read_dimacs_string(
      "c a comment\n\np cnf 2 2\n1 -2 0\nc mid comment\n2 0\n");
  EXPECT_EQ(f.num_vars(), 2);
  EXPECT_EQ(f.num_clauses(), 2u);
}

TEST(Dimacs, RejectsMalformedInput) {
  EXPECT_THROW((void)read_dimacs_string("1 2 0\n"), check_error);
  EXPECT_THROW((void)read_dimacs_string("p cnf 1 1\n5 0\n"), check_error);
  EXPECT_THROW((void)read_dimacs_string("p cnf 2 1\n1 2\n"), check_error);
}

TEST(Dimacs, SolvedAfterRoundTripAgrees) {
  const cnf ph = pigeonhole(4);
  const cnf copy = read_dimacs_string(write_dimacs_string(ph));
  solver s;
  s.add_cnf(copy);
  EXPECT_EQ(s.solve(), solve_result::unsat);
}

}  // namespace
}  // namespace janus::sat
