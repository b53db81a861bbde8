// Additional end-to-end coverage for the synthesis engine: edge-shaped
// targets, option toggles, probe memoization, and deeper JANUS-vs-optimum
// sweeps on 4-variable functions.
#include <gtest/gtest.h>

#include "cache/solution_cache.hpp"
#include "instances/table2.hpp"
#include "instances/table3.hpp"
#include "lm/reach_encoding.hpp"
#include "synth/baselines.hpp"
#include "synth/janus.hpp"
#include "synth/janus_mf.hpp"
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

// --- fit_at_height: the DS row ladder, the JANUS-MF height sweep and
// heur11's candidate search, pinned at jobs=1 so that any change to a
// caller's probe order or column range shows up here.

/// "5x5 S, 5x4 S, ..." for a probe log.
std::string probe_sequence(const std::vector<probe_record>& probes) {
  std::string out;
  for (const probe_record& p : probes) {
    out += (out.empty() ? "" : ", ") + p.d.str() +
           (p.status == lm::lm_status::realizable ? " S" : " U");
  }
  return out;
}

exec::cancel_token cancelled_token() {
  exec::cancel_source source;
  source.request_cancel();
  return source.token();
}

TEST(FitAtHeight, Heuristic11KeepsItsPromisingCandidateOrder) {
  // Narrow at the current height, then fit one row lower up to the same
  // size; the repeated 3x4 probe is part of the published order.
  const target_spec t = instances::make_table2_instance("misex1_05");
  const janus_result r = run_heuristic11(t, fast_options());
  EXPECT_EQ(probe_sequence(r.probes),
            "5x5 S, 5x4 S, 5x3 U, 4x4 S, 4x3 U, 3x4 U, 3x5 S, 3x4 U, 2x5 U, "
            "2x6 U, 2x7 U");
  EXPECT_EQ(r.solution_dims(), "3x5");
  EXPECT_FALSE(r.hit_time_limit);

  const target_spec dc1 = instances::make_table2_instance("dc1_03");
  const janus_result d = run_heuristic11(dc1, fast_options());
  EXPECT_EQ(probe_sequence(d.probes), "5x3 S, 5x2 U, 4x3 S, 4x2 U, 3x3 U");
  EXPECT_EQ(d.solution_dims(), "4x3");
  EXPECT_TRUE(d.solution->realizes(dc1.function()));
}

TEST(FitAtHeight, DivideAndSynthesizeKeepsItsRowLadder) {
  for (const auto& [name, want] :
       {std::pair<const char*, const char*>{"misex1_05", "3x8"},
        {"dc1_03", "4x5"}}) {
    const target_spec t = instances::make_table2_instance(name);
    janus_synthesizer engine(fast_options());
    const auto ds = engine.divide_and_synthesize(t, deadline::never(), 1);
    ASSERT_TRUE(ds.has_value()) << name;
    EXPECT_EQ(ds->mapping.grid().str(), want) << name;
    EXPECT_TRUE(ds->mapping.realizes(t.function())) << name;
  }
}

std::vector<target_spec> first_bw_outputs() {
  std::vector<target_spec> targets = instances::make_table3_instance("bw");
  targets.resize(4);
  return targets;
}

TEST(FitAtHeight, JanusMfKeepsItsHeightSweep) {
  const janus_mf_result r = run_janus_mf(first_bw_outputs(), fast_options());
  EXPECT_EQ(r.straightforward.grid().grid().str(), "5x13");
  EXPECT_EQ(r.improved.grid().grid().str(), "4x14");
  EXPECT_FALSE(r.hit_time_limit);
}

TEST(Cancellation, JanusMfHeightSweepStopsOnCancel) {
  // A warm store answers Part 1 without a ladder, so only Part 2 could
  // still spend SAT work under the cancelled token.
  const std::vector<target_spec> targets = first_bw_outputs();
  cache::solution_cache store;
  janus_options o = fast_options();
  o.solutions = &store;
  (void)run_janus_mf(targets, o);
  o.exec.cancel = cancelled_token();
  const janus_mf_result r = run_janus_mf(targets, o);
  EXPECT_EQ(r.improved.grid().str(), r.straightforward.grid().str());
  EXPECT_TRUE(r.hit_time_limit);
}

TEST(Cancellation, Heuristic11ProbesNothingOnceCancelled) {
  janus_options o = fast_options();
  o.exec.cancel = cancelled_token();
  const target_spec t = instances::make_table2_instance("misex1_04");
  const janus_result r = run_heuristic11(t, o);
  EXPECT_EQ(r.sat_totals.conflicts, 0u);
  EXPECT_TRUE(r.probes.empty());
  EXPECT_TRUE(r.hit_time_limit);
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_TRUE(r.solution->realizes(t.function()));
}

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
