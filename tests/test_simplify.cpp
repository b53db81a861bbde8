// Tests for the inprocessing engine (sat/simplify.hpp).
//
// The engine rewrites the formula underneath the search — variable
// elimination, vivification — so the tests here are about *preservation*:
// with inprocessing on, the solver must report the same status as with it
// off (and as brute force), models must satisfy the ORIGINAL formula
// (exercising model reconstruction), and the frozen-variable protocol must
// keep assumptions and conflict cores sound.
#include <gtest/gtest.h>

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

// ---------------------------------------------------------------------------
// Model preservation
// ---------------------------------------------------------------------------

TEST(Simplify, RandomCnfAgreesWithBruteForceAndRebuildsModels) {
  rng r(4242);
  for (int iter = 0; iter < 400; ++iter) {
    const int nv = 4 + static_cast<int>(r.next_below(10));
    const cnf f = random_cnf(r, nv);
    solver s(inprocessing_options());
    s.add_cnf(f);
    const solve_result res = s.solve();
    const bool expected = brute_force_sat(f);
    ASSERT_EQ(res == solve_result::sat, expected) << "iter " << iter;
    if (res == solve_result::sat) {
      // The model must satisfy the ORIGINAL clauses, including every
      // variable that elimination removed from the search.
      ASSERT_TRUE(model_satisfies(s, f)) << "iter " << iter;
    }
  }
}

TEST(Simplify, OnAndOffAgreeOnPlantedInstances) {
  rng r(77);
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
    s.add_cnf(f);
    ASSERT_EQ(s.solve(), solve_result::sat) << "iter " << iter;
    ASSERT_TRUE(model_satisfies(s, f)) << "iter " << iter;
  }
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
  for (const char* text : {"ab + c", "ab + b'c + ac'", "abc + a'b'"}) {
    const lm::target_spec t = lm::target_spec::parse(4, text);
    for (const lattice::dims d : {lattice::dims{2, 3}, lattice::dims{3, 3}}) {
      const lm::lm_encoder enc(t, cache.get(d), /*dual_side=*/false, eo);

      solver baseline;
      baseline.add_cnf(enc.formula());
      const solve_result expected = baseline.solve();

      solver s(inprocessing_options());
      s.add_cnf(enc.formula());
      const solve_result got = s.solve();
      ASSERT_EQ(got, expected) << text << " on " << d.str();
      if (got == solve_result::sat) {
        ASSERT_TRUE(model_satisfies(s, enc.formula()))
            << text << " on " << d.str();
        const auto mapping = enc.decode(s);
        EXPECT_TRUE(mapping.realizes(t.function()))
            << "decode through reconstructed model failed for " << text
            << " on " << d.str();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Frozen-variable protocol
// ---------------------------------------------------------------------------

TEST(Simplify, AssumptionVariablesAreFrozenNotEliminated) {
  cnf f;
  const var g = guarded_pigeonhole(f, 5);
  solver s(inprocessing_options());
  ASSERT_TRUE(s.add_cnf(f));
  const lit assume = lit::make(g);

  ASSERT_EQ(s.solve({{assume}}), solve_result::unsat);
  EXPECT_TRUE(s.okay());  // assumption-relative unsat must not poison
  EXPECT_TRUE(s.is_frozen(g));
  EXPECT_FALSE(s.is_eliminated(g));
  // The conflict core speaks the caller's language: negations of the
  // assumptions that were actually used.
  ASSERT_FALSE(s.conflict_core().empty());
  for (const lit l : s.conflict_core()) {
    EXPECT_EQ(l, ~assume);
  }

  ASSERT_EQ(s.solve({{~assume}}), solve_result::sat);
  EXPECT_TRUE(model_satisfies(s, f));
}

TEST(Simplify, ExplicitFreezeAllowsClausesAfterPreprocessing) {
  rng r(909);
  for (int iter = 0; iter < 60; ++iter) {
    const int nv = 5 + static_cast<int>(r.next_below(7));
    const cnf base = random_cnf(r, nv);
    solver s(inprocessing_options());
    s.add_cnf(base);
    // Freeze three variables up front, as the LM layer does for interface
    // variables, so clauses over them remain legal after preprocessing.
    std::vector<var> iface;
    for (int k = 0; k < 3; ++k) {
      const auto v =
          static_cast<var>(r.next_below(static_cast<std::uint64_t>(nv)));
      iface.push_back(v);
      s.freeze(v);
    }
    const solve_result first = s.solve();
    ASSERT_EQ(first == solve_result::sat, brute_force_sat(base))
        << "iter " << iter;
    if (first != solve_result::sat) {
      continue;
    }
    cnf extended = base;
    std::vector<lit> extra;
    for (const var v : iface) {
      extra.push_back(lit::make(v, r.next_bool()));
    }
    extended.add_clause(extra);
    const bool added = s.add_clause(extra);
    const bool expected = brute_force_sat(extended);
    if (!added) {
      ASSERT_FALSE(expected) << "iter " << iter;
      continue;
    }
    ASSERT_EQ(s.solve() == solve_result::sat, expected) << "iter " << iter;
    if (expected) {
      ASSERT_TRUE(model_satisfies(s, extended)) << "iter " << iter;
    }
  }
}

TEST(Simplify, RandomAssumptionSequencesStaySound) {
  rng r(31337);
  for (int iter = 0; iter < 120; ++iter) {
    const int nv = 5 + static_cast<int>(r.next_below(8));
    const cnf f = random_cnf(r, nv);
    solver s(inprocessing_options());
    s.add_cnf(f);
    // The protocol: variables assumed after preprocessing must be frozen
    // before the first solve(). Draw all assumptions from a frozen pool.
    std::vector<var> pool;
    for (int k = 0; k < 4; ++k) {
      const auto v =
          static_cast<var>(r.next_below(static_cast<std::uint64_t>(nv)));
      pool.push_back(v);
      s.freeze(v);
    }
    for (int round = 0; round < 6; ++round) {
      std::vector<lit> assumptions;
      const int count = static_cast<int>(r.next_below(4));
      for (int k = 0; k < count; ++k) {
        assumptions.push_back(
            lit::make(pool[r.next_below(pool.size())], r.next_bool()));
      }
      const solve_result res = s.solve(assumptions);
      const bool expected = brute_force_sat(f, assumptions);
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
}

// ---------------------------------------------------------------------------
// Counters and hygiene
// ---------------------------------------------------------------------------

TEST(Simplify, CountersAdvanceAndFlowThroughArithmetic) {
  solver s(inprocessing_options());
  s.add_cnf(pigeonhole(7));
  ASSERT_EQ(s.solve(), solve_result::unsat);
  const solver_stats st = s.stats();
  EXPECT_GT(st.eliminated_vars + st.vivified, 0u);

  solver_stats sum;
  sum += st;
  const solver_stats delta = sum - solver_stats{};
  EXPECT_EQ(delta.eliminated_vars, st.eliminated_vars);
  EXPECT_EQ(delta.vivified, st.vivified);
}

TEST(Simplify, DecayHeuristicsKeepsSolverSound) {
  cnf f;
  const var g = guarded_pigeonhole(f, 5);
  solver s(inprocessing_options());
  ASSERT_TRUE(s.add_cnf(f));
  ASSERT_EQ(s.solve({{lit::make(g)}}), solve_result::unsat);
  s.decay_heuristics();
  ASSERT_EQ(s.solve({{~lit::make(g)}}), solve_result::sat);
  s.decay_heuristics(/*rephase=*/false);
  ASSERT_EQ(s.solve({{lit::make(g)}}), solve_result::unsat);
  EXPECT_TRUE(s.okay());
}

}  // namespace
}  // namespace janus::sat
