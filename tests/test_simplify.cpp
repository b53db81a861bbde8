// Tests for the inprocessing engine (sat/simplify.hpp).
//
// The engine rewrites the formula underneath the search — level-0 cleanup,
// learnt-clause vivification — so the tests here are about *preservation*:
// with inprocessing on, the solver must report the same status as with it
// off (and as brute force), models must satisfy the ORIGINAL formula, and
// clauses and assumptions over any variable must stay sound after rounds
// have run.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lm/encoding.hpp"
#include "lm/lattice_info.hpp"
#include "lm/target.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace janus::sat {
namespace {

bool brute_force_sat(const cnf& f, const std::vector<lit>& assumptions = {}) {
  const int n = f.num_vars();
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
    bool all = true;
    for (const lit l : assumptions) {
      const bool value = ((m >> l.variable()) & 1) != 0;
      if (value == l.negated()) {
        all = false;
        break;
      }
    }
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

cnf random_cnf(rng& r, int num_vars) {
  cnf f;
  f.new_vars(num_vars);
  const int clauses =
      num_vars + static_cast<int>(
                     r.next_below(static_cast<std::uint64_t>(num_vars * 3)));
  for (int c = 0; c < clauses; ++c) {
    std::vector<lit> cl;
    const int len = 1 + static_cast<int>(r.next_below(3));
    for (int k = 0; k < len; ++k) {
      cl.push_back(lit::make(
          static_cast<var>(r.next_below(static_cast<std::uint64_t>(num_vars))),
          r.next_bool()));
    }
    f.add_clause(cl);
  }
  return f;
}

solver_options inprocessing_options() {
  solver_options o;
  o.inprocess = true;
  o.inprocess_interval = 50;  // force rounds even on small instances
  return o;
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
        f.add_binary(
            ~in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
            ~in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]);
      }
    }
  }
  return f;
}

/// Pigeonhole with every clause guarded by one activation variable g:
/// solve({g}) is hard UNSAT, solve({~g}) is trivially SAT. Returns g.
var guarded_pigeonhole(cnf& f, int holes) {
  const var g = f.new_var();
  const lit guard = ~lit::make(g);
  const int pigeons = holes + 1;
  std::vector<std::vector<lit>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(lit::make(f.new_var()));
    }
    std::vector<lit> clause = in[static_cast<std::size_t>(p)];
    clause.insert(clause.begin(), guard);
    f.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.add_clause(
            {guard,
             ~in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
             ~in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]});
      }
    }
  }
  return g;
}

/// Drives a fresh solver through inprocessing rounds, vivification
/// included, before a test adds its formula over variables
/// 0..formula_vars-1: the first round waits for 300 conflicts, which the
/// formulas below never reach on their own. A guarded pigeonhole (6 holes)
/// over the variables after those is refuted under its guard g. Fills `warm`
/// with g false and one literal per pigeonhole variable, to be valued by
/// redraw() and assumed in every later solve.
void warm_up(solver& s, int formula_vars, std::vector<lit>& warm) {
  cnf hard;
  hard.new_vars(formula_vars);
  const var g = guarded_pigeonhole(hard, 6);
  ASSERT_TRUE(s.add_cnf(hard));
  ASSERT_EQ(s.solve({{lit::make(g)}}), solve_result::unsat);
  warm = {lit::make(g, true)};
  for (var v = g + 1; v < static_cast<var>(hard.num_vars()); ++v) {
    warm.push_back(lit::make(v));
  }
}

/// Gives every pigeonhole variable in `warm` a value from `pick`. With g
/// false any draw leaves the formula's answers unchanged, but an unsound
/// learnt clause over the pigeonhole variables refutes some draws.
void redraw(std::vector<lit>& warm, rng& pick) {
  for (std::size_t i = 1; i < warm.size(); ++i) {
    warm[i] = lit::make(warm[i].variable(), pick.next_bool());
  }
}

/// Draws checked per warmed solver where a test makes one check.
constexpr int kDraws = 8;

// ---------------------------------------------------------------------------
// Model preservation
// ---------------------------------------------------------------------------

TEST(Simplify, RandomCnfAgreesWithBruteForce) {
  rng r(4242);
  rng pick(4243);
  std::uint64_t vivified = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const int nv = 4 + static_cast<int>(r.next_below(10));
    const cnf f = random_cnf(r, nv);
    solver s(inprocessing_options());
    std::vector<lit> warm;
    ASSERT_NO_FATAL_FAILURE(warm_up(s, nv, warm)) << "iter " << iter;
    vivified += s.stats().vivified;
    s.add_cnf(f);
    const bool expected = brute_force_sat(f);
    for (int draw = 0; draw < kDraws; ++draw) {
      redraw(warm, pick);
      const solve_result res = s.solve(warm);
      ASSERT_EQ(res == solve_result::sat, expected)
          << "iter " << iter << " draw " << draw;
      if (res == solve_result::sat) {
        // The model must satisfy the ORIGINAL clauses.
        ASSERT_TRUE(model_satisfies(s, f)) << "iter " << iter;
      }
    }
  }
  EXPECT_GT(vivified, 0u);
}

TEST(Simplify, OnAndOffAgreeOnPlantedInstances) {
  rng r(77);
  rng pick(78);
  std::uint64_t vivified = 0;
  for (int iter = 0; iter < 10; ++iter) {
    const int nv = 80 + static_cast<int>(r.next_below(120));
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
          const auto v =
              static_cast<var>(r.next_below(static_cast<std::uint64_t>(nv)));
          const bool neg = r.next_bool();
          cl.push_back(lit::make(v, neg));
          satisfied |= hidden[static_cast<std::size_t>(v)] != neg;
        }
      }
      f.add_clause(cl);
    }
    solver_options o = inprocessing_options();
    o.reduce_base = 60;  // churn the learnt DB through vivification rounds
    solver s(o);
    std::vector<lit> warm;
    ASSERT_NO_FATAL_FAILURE(warm_up(s, nv, warm)) << "iter " << iter;
    vivified += s.stats().vivified;
    s.add_cnf(f);
    for (int draw = 0; draw < kDraws; ++draw) {
      redraw(warm, pick);
      ASSERT_EQ(s.solve(warm), solve_result::sat)
          << "iter " << iter << " draw " << draw;
      ASSERT_TRUE(model_satisfies(s, f)) << "iter " << iter;
    }
  }
  EXPECT_GT(vivified, 0u);
}

TEST(Simplify, PigeonholeStaysUnsat) {
  solver s(inprocessing_options());
  s.add_cnf(pigeonhole(7));
  EXPECT_EQ(s.solve(), solve_result::unsat);
  EXPECT_FALSE(s.okay());  // empty-assumption unsat poisons the solver
}

TEST(Simplify, RealEncoderInstancesAgreeWithBaselineSolver) {
  lm::lattice_info_cache cache;
  const lm::lm_encode_options eo;
  rng pick(5);
  std::uint64_t vivified = 0;
  for (const char* text : {"ab + c", "ab + b'c + ac'", "abc + a'b'"}) {
    const lm::target_spec t = lm::target_spec::parse(4, text);
    for (const lattice::dims d : {lattice::dims{2, 3}, lattice::dims{3, 3}}) {
      const lm::lm_encoder enc(t, cache.get(d), /*dual_side=*/false, eo);

      solver baseline;
      baseline.add_cnf(enc.formula());
      const solve_result expected = baseline.solve();

      solver s(inprocessing_options());
      std::vector<lit> warm;
      ASSERT_NO_FATAL_FAILURE(warm_up(s, enc.formula().num_vars(), warm))
          << text << " on " << d.str();
      vivified += s.stats().vivified;
      s.add_cnf(enc.formula());
      for (int draw = 0; draw < kDraws; ++draw) {
        redraw(warm, pick);
        const solve_result got = s.solve(warm);
        ASSERT_EQ(got, expected) << text << " on " << d.str();
        if (got == solve_result::sat) {
          ASSERT_TRUE(model_satisfies(s, enc.formula()))
              << text << " on " << d.str();
          const auto mapping = enc.decode(s);
          EXPECT_TRUE(mapping.realizes(t.function()))
              << "decode failed for " << text
              << " on " << d.str();
        }
      }
    }
  }
  EXPECT_GT(vivified, 0u);
}

// ---------------------------------------------------------------------------
// Clauses and assumptions after inprocessing rounds
// ---------------------------------------------------------------------------

TEST(Simplify, ClausesOverAnyVariableCanBeAddedAfterInprocessing) {
  // A guarded pigeonhole (UNSAT under its guard g) drives the solver through
  // inprocessing rounds; then assumptions and clauses over any variable — the
  // guard, the pigeonhole's own variables or a small random part — follow,
  // and every answer is checked by brute force. With g true the pigeonhole
  // refutes everything, so the whole formula is satisfiable iff the random
  // part and the added clauses are with g false; `small` holds exactly those
  // clauses over compact indices (0 is g, 1..3 pigeonhole variables),
  // `to_solver` maps them back.
  rng r(909);
  for (int iter = 0; iter < 12; ++iter) {
    cnf full;
    const var g = guarded_pigeonhole(full, 6);
    const int hard_vars = full.num_vars();
    std::vector<var> to_solver = {g};
    while (to_solver.size() < 4) {
      const auto v = static_cast<var>(
          1 + r.next_below(static_cast<std::uint64_t>(full.num_vars() - 1)));
      if (std::find(to_solver.begin(), to_solver.end(), v) ==
          to_solver.end()) {
        to_solver.push_back(v);
      }
    }
    const int nv = 5 + static_cast<int>(r.next_below(6));
    for (int k = 0; k < nv; ++k) {
      to_solver.push_back(full.new_var());
    }
    const auto to_full = [&](const std::vector<lit>& clause) {
      std::vector<lit> out;
      for (const lit l : clause) {
        out.push_back(lit::make(to_solver[static_cast<std::size_t>(
                                    l.variable())],
                                l.negated()));
      }
      return out;
    };
    cnf small;
    small.new_vars(static_cast<int>(to_solver.size()));
    small.add_clause({lit::make(0, true)});  // g false, for brute force only
    const int n = static_cast<int>(to_solver.size());
    const auto random_clause = [&] {
      std::vector<lit> cl;
      const int len = 1 + static_cast<int>(r.next_below(3));
      for (int k = 0; k < len; ++k) {
        cl.push_back(lit::make(
            static_cast<var>(r.next_below(static_cast<std::uint64_t>(n))),
            r.next_bool()));
      }
      return cl;
    };
    // A satisfiable random part over the fresh variables only, so the
    // pigeonhole keeps its full hardness.
    for (int c = 0; c < nv; ++c) {
      std::vector<lit> cl = random_clause();
      cl.erase(std::remove_if(cl.begin(), cl.end(),
                              [](lit l) { return l.variable() < 4; }),
               cl.end());
      cnf trial = small;
      trial.add_clause(cl);
      if (!cl.empty() && brute_force_sat(trial)) {
        small.add_clause(cl);
        full.add_clause(to_full(cl));
      }
    }

    solver s(inprocessing_options());
    ASSERT_TRUE(s.add_cnf(full));
    ASSERT_EQ(s.solve({{lit::make(g)}}), solve_result::unsat)
        << "iter " << iter;
    // A vivification round ran (so the cleanup round before it did too):
    // everything below runs on a solver that has inprocessed.
    ASSERT_GT(s.stats().vivified, 0u) << "iter " << iter;

    for (int round = 0; round < 8; ++round) {
      // Assumptions first: g false and a random value for every pigeonhole
      // variable (which then constrain only through `small`), plus one
      // literal over any compact variable. An unsound learnt clause over the
      // pigeonhole variables would refute some of these assignments.
      std::vector<lit> assumptions = {lit::make(g, true)};
      std::vector<lit> compact = {lit::make(0, true)};
      for (var v = 1; v < hard_vars; ++v) {
        const bool neg = r.next_bool();
        assumptions.push_back(lit::make(v, neg));
        for (var k = 1; k < 4; ++k) {
          if (to_solver[static_cast<std::size_t>(k)] == v) {
            compact.push_back(lit::make(k, neg));
          }
        }
      }
      compact.push_back(lit::make(
          static_cast<var>(r.next_below(static_cast<std::uint64_t>(n))),
          r.next_bool()));
      assumptions.push_back(to_full({compact.back()})[0]);
      const solve_result assumed = s.solve(assumptions);
      ASSERT_EQ(assumed == solve_result::sat, brute_force_sat(small, compact))
          << "iter " << iter << " round " << round;
      if (assumed == solve_result::sat) {
        ASSERT_TRUE(model_satisfies(s, full))
            << "iter " << iter << " round " << round;
      }
      const std::vector<lit> extra = random_clause();
      small.add_clause(extra);
      full.add_clause(to_full(extra));
      const bool expected = brute_force_sat(small);
      if (!s.add_clause(to_full(extra))) {
        ASSERT_FALSE(expected) << "iter " << iter << " round " << round;
        break;
      }
      const solve_result res = s.solve();
      ASSERT_EQ(res == solve_result::sat, expected)
          << "iter " << iter << " round " << round;
      if (!expected) {
        break;
      }
      ASSERT_TRUE(model_satisfies(s, full))
          << "iter " << iter << " round " << round;
    }
  }
}

TEST(Simplify, RandomAssumptionSequencesStaySound) {
  rng r(31337);
  rng pick(31338);
  std::uint64_t vivified = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const int nv = 5 + static_cast<int>(r.next_below(8));
    const cnf f = random_cnf(r, nv);
    solver s(inprocessing_options());
    std::vector<lit> warm;
    ASSERT_NO_FATAL_FAILURE(warm_up(s, nv, warm)) << "iter " << iter;
    vivified += s.stats().vivified;
    s.add_cnf(f);
    for (int round = 0; round < 6; ++round) {
      redraw(warm, pick);
      std::vector<lit> assumptions;
      const int count = static_cast<int>(r.next_below(4));
      for (int k = 0; k < count; ++k) {
        assumptions.push_back(lit::make(
            static_cast<var>(r.next_below(static_cast<std::uint64_t>(nv))),
            r.next_bool()));
      }
      const bool expected = brute_force_sat(f, assumptions);
      assumptions.insert(assumptions.end(), warm.begin(), warm.end());
      const solve_result res = s.solve(assumptions);
      ASSERT_EQ(res == solve_result::sat, expected)
          << "iter " << iter << " round " << round;
      if (res == solve_result::sat) {
        ASSERT_TRUE(model_satisfies(s, f));
        for (const lit a : assumptions) {
          ASSERT_EQ(s.model_value(a), lbool::true_value);
        }
      } else {
        // Every core literal must be the negation of a given assumption.
        for (const lit l : s.conflict_core()) {
          bool matched = false;
          for (const lit a : assumptions) {
            matched |= l == ~a;
          }
          ASSERT_TRUE(matched) << "iter " << iter << " round " << round;
        }
        if (!s.okay()) {
          break;  // unconditionally unsat: nothing more to probe
        }
      }
    }
  }
  EXPECT_GT(vivified, 0u);
}

// ---------------------------------------------------------------------------
// Counters and hygiene
// ---------------------------------------------------------------------------

TEST(Simplify, CountersAdvanceAndFlowThroughArithmetic) {
  solver s(inprocessing_options());
  s.add_cnf(pigeonhole(7));
  ASSERT_EQ(s.solve(), solve_result::unsat);
  const solver_stats st = s.stats();
  EXPECT_GT(st.vivified, 0u);

  solver_stats sum;
  sum += st;
  const solver_stats delta = sum - solver_stats{};
  EXPECT_EQ(delta.vivified, st.vivified);
}

TEST(Simplify, DecayHeuristicsKeepsSolverSound) {
  cnf f;
  const var g = guarded_pigeonhole(f, 5);
  solver s(inprocessing_options());
  ASSERT_TRUE(s.add_cnf(f));
  const lit assume = lit::make(g);
  ASSERT_EQ(s.solve({{assume}}), solve_result::unsat);
  EXPECT_TRUE(s.okay());  // assumption-relative unsat must not poison
  // The conflict core speaks the caller's language: negations of the
  // assumptions that were actually used.
  ASSERT_FALSE(s.conflict_core().empty());
  for (const lit l : s.conflict_core()) {
    EXPECT_EQ(l, ~assume);
  }
  s.decay_heuristics();
  ASSERT_EQ(s.solve({{~lit::make(g)}}), solve_result::sat);
  s.decay_heuristics(/*rephase=*/false);
  ASSERT_EQ(s.solve({{lit::make(g)}}), solve_result::unsat);
  EXPECT_TRUE(s.okay());
}

}  // namespace
}  // namespace janus::sat
