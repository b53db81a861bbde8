// Additional end-to-end coverage for the synthesis engine: edge-shaped
// targets, option toggles, probe memoization, and deeper JANUS-vs-optimum
// sweeps on 4-variable functions.
#include <gtest/gtest.h>

#include "cache/solution_cache.hpp"
#include "lm/reach_encoding.hpp"
#include "synth/baselines.hpp"
#include "synth/janus.hpp"
#include "util/rng.hpp"

namespace janus::synth {
namespace {

using lm::target_spec;

janus_options fast_options() {
  janus_options o;
  o.time_limit_s = 60.0;
  o.lm.sat_time_limit_s = 15.0;
  return o;
}

int reach_optimum(const target_spec& t, int max_area) {
  lm::lm_options opt;
  for (int area = 1; area <= max_area; ++area) {
    for (const lattice::dims& d : lattice_candidates(area)) {
      if (d.size() > area) {
        continue;
      }
      if (lm::solve_lm_reachability(t, d, opt).status ==
          lm::lm_status::realizable) {
        return area;
      }
    }
  }
  return max_area + 1;
}

TEST(JanusEdge, SingleLiteralFunction) {
  janus_synthesizer engine(fast_options());
  const auto r = engine.run(target_spec::parse(3, "b"));
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_EQ(r.solution_size(), 1);  // one switch wired to b
}

TEST(JanusEdge, SingleProductFunction) {
  janus_synthesizer engine(fast_options());
  const target_spec t = target_spec::parse(5, "ab'cde");
  const auto r = engine.run(t);
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_EQ(r.solution_size(), 5);  // a 5×1 column is optimal
  EXPECT_TRUE(r.solution->realizes(t.function()));
}

TEST(JanusEdge, DisjunctionOfLiterals) {
  janus_synthesizer engine(fast_options());
  const target_spec t = target_spec::parse(4, "a + b + c + d");
  const auto r = engine.run(t);
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_EQ(r.solution_size(), 4);  // a 1×4 row is optimal
}

TEST(JanusEdge, TwoVariableFunctions) {
  janus_synthesizer engine(fast_options());
  for (const char* text : {"ab", "a + b", "ab'", "ab + a'b'"}) {
    const target_spec t = target_spec::parse(2, text);
    const auto r = engine.run(t);
    ASSERT_TRUE(r.solution.has_value()) << text;
    EXPECT_TRUE(r.solution->realizes(t.function())) << text;
    EXPECT_EQ(r.solution_size(), reach_optimum(t, r.new_upper_bound)) << text;
  }
}

TEST(JanusEdge, UnateFunctionsSynthesizeWithoutComplementedCells) {
  // Positive-unate target: a solution exists; (not required to avoid
  // complemented literals, but must verify and be small).
  janus_synthesizer engine(fast_options());
  const target_spec t = target_spec::parse(4, "ab + bc + cd");
  const auto r = engine.run(t);
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_TRUE(r.solution->realizes(t.function()));
  EXPECT_LE(r.solution_size(), 8);
}

TEST(JanusEdge, ConstantsTakeTheOneConstantConstruction) {
  for (const bf::truth_table& f :
       {bf::truth_table(3), bf::truth_table::ones(3)}) {
    const target_spec t = target_spec::from_function(f);
    cache::solution_cache store;
    janus_options o = fast_options();
    o.solutions = &store;
    janus_synthesizer engine(o);

    const auto bounds = engine.compute_bounds(t, deadline::never());
    EXPECT_EQ(bounds.lower_bound, 1);
    ASSERT_EQ(bounds.methods.size(), 1u);
    EXPECT_EQ(bounds.methods[0].method, "const");
    EXPECT_EQ(bounds.methods[0].mapping.grid(), (lattice::dims{1, 1}));
    EXPECT_TRUE(bounds.methods[0].mapping.realizes(f));

    const janus_result r = engine.run(t);
    EXPECT_EQ(r.ub_method, "const");
    EXPECT_EQ(r.solution_size(), 1);
    EXPECT_EQ(r.lower_bound, 1);
    // Constants return before the solution cache is consulted.
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().misses, 0u);

    const janus_result h = run_heuristic11(t, fast_options());
    EXPECT_EQ(h.ub_method, "const");
    EXPECT_EQ(h.solution_size(), 1);
    EXPECT_TRUE(h.solution->realizes(f));
  }
}

TEST(Baselines, PcircuitReportsTheStructuralLowerBound) {
  for (const char* expr : {"ab + b'c + ac'", "ab + cd", "abc + a'd"}) {
    const target_spec t = target_spec::parse(4, expr);
    const janus_result r = run_pcircuit9(t, fast_options());
    ASSERT_TRUE(r.solution.has_value()) << expr;
    EXPECT_TRUE(r.solution->realizes(t.function())) << expr;
    EXPECT_GT(r.lower_bound, 0) << expr;
    EXPECT_LE(r.lower_bound, r.solution_size()) << expr;
  }
}

TEST(JanusOptions, DisablingBoundMethodsStillSolves) {
  janus_options o = fast_options();
  o.bound_set = upper_bounds::oub;  // DP, PS and DPS only
  janus_synthesizer engine(o);
  const target_spec t = target_spec::parse(3, "ab + b'c");
  const auto bounds = engine.compute_bounds(t, deadline::never());
  for (const bound_solution& b : bounds.methods) {
    EXPECT_TRUE(b.method == "DP" || b.method == "PS" || b.method == "DPS")
        << b.method;
  }
  const auto r = engine.run(t);
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_TRUE(r.solution->realizes(t.function()));
  EXPECT_EQ(r.old_upper_bound, r.new_upper_bound);
  EXPECT_LE(r.lower_bound, r.solution_size());
}

TEST(JanusOptions, TimeLimitZeroStillReturnsTheBoundSolution) {
  janus_options o = fast_options();
  o.time_limit_s = 0.0;
  janus_synthesizer engine(o);
  const target_spec t = target_spec::parse(4, "ab + b'c + c'd");
  const auto r = engine.run(t);
  ASSERT_TRUE(r.solution.has_value());  // the ub construction itself
  EXPECT_TRUE(r.solution->realizes(t.function()));
  EXPECT_TRUE(r.hit_time_limit || r.solution_size() == r.lower_bound);
}

TEST(Janus, RerunIsDeterministic) {
  janus_synthesizer engine(fast_options());
  const target_spec t = target_spec::parse(4, "ab + cd + a'c'");
  const auto r1 = engine.run(t);
  const auto r2 = engine.run(t);
  ASSERT_TRUE(r1.solution.has_value());
  ASSERT_TRUE(r2.solution.has_value());
  EXPECT_EQ(r1.solution_size(), r2.solution_size());
  EXPECT_EQ(r1.lower_bound, r2.lower_bound);
  EXPECT_EQ(r1.new_upper_bound, r2.new_upper_bound);
}

class Janus4VarOptimum : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Janus4VarOptimum, CompleteModeMatchesReachabilityOptimum) {
  rng r(GetParam());
  janus_options o = fast_options();
  o.lm.encode.use_degree_rules = false;
  o.lm.encode.tl_isop_literals_only = false;
  janus_synthesizer engine(o);
  for (int iter = 0; iter < 2; ++iter) {
    bf::truth_table f(4);
    for (std::uint64_t m = 0; m < 16; ++m) {
      f.set(m, r.next_bool(0.35));
    }
    if (f.is_zero() || f.is_one()) {
      continue;
    }
    const target_spec t = target_spec::from_function(f);
    const auto res = engine.run(t);
    ASSERT_TRUE(res.solution.has_value());
    EXPECT_EQ(res.solution_size(), reach_optimum(t, res.new_upper_bound))
        << "f = " << t.sop().str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Janus4VarOptimum,
                         ::testing::Values(211u, 212u, 213u, 214u));

TEST(Candidates, LargeAreasAreCovered) {
  for (int area : {7, 13, 24, 36}) {
    const auto cands = lattice_candidates(area);
    EXPECT_FALSE(cands.empty());
    // The full-area divisor pairs must all appear.
    for (int m = 1; m <= area; ++m) {
      if (area % m == 0) {
        const lattice::dims want{m, area / m};
        EXPECT_NE(std::find(cands.begin(), cands.end(), want), cands.end())
            << area << ": " << want.str();
      }
    }
  }
}

}  // namespace
}  // namespace janus::synth
