// End-to-end tests for JANUS, the baselines, DS and JANUS-MF.
//
// The key oracle: for small functions we compute the true optimum by probing
// every maximal dimension pair with the complete reachability encoding; the
// complete-mode JANUS must match it, and default JANUS must stay within the
// bound sandwich lb ≤ sol ≤ nub ≤ oub.
#include <gtest/gtest.h>

#include "lm/reach_encoding.hpp"
#include "synth/baselines.hpp"
#include "synth/janus.hpp"
#include "synth/janus_mf.hpp"
#include "util/rng.hpp"

namespace janus::synth {
namespace {

using lm::target_spec;

bf::truth_table random_function(rng& r, int n, double density = 0.5) {
  bf::truth_table t(n);
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
    t.set(m, r.next_bool(density));
  }
  if (t.is_zero() || t.is_one()) {
    t.set(0, !t.get(0));
  }
  return t;
}

/// Ground-truth optimum: smallest area any lattice realizes f on, via the
/// complete reachability encoding (exhaustive over maximal candidates).
int brute_force_optimum(const target_spec& t, int max_area) {
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

janus_options fast_options() {
  janus_options o;
  o.time_limit_s = 60.0;
  o.lm.sat_time_limit_s = 20.0;
  return o;
}

TEST(Janus, ConstantFunctionsGetOneSwitch) {
  janus_synthesizer engine(fast_options());
  const janus_result zero =
      engine.run(target_spec::from_function(bf::truth_table(3)));
  ASSERT_TRUE(zero.solution.has_value());
  EXPECT_EQ(zero.solution_size(), 1);
  const janus_result one =
      engine.run(target_spec::from_function(bf::truth_table::ones(3)));
  EXPECT_EQ(one.solution_size(), 1);
  EXPECT_TRUE(one.solution->realizes(bf::truth_table::ones(3)));
}

TEST(Janus, Fig1FindsTheMinimalEightSwitchLattice) {
  janus_synthesizer engine(fast_options());
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'", "fig1");
  const janus_result r = engine.run(t);
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_TRUE(r.solution->realizes(t.function()));
  EXPECT_EQ(r.solution_size(), 8);  // paper: minimum 4×2
}

TEST(Janus, Fig4FindsTheTwelveSwitchOptimum) {
  janus_synthesizer engine(fast_options());
  const target_spec t =
      target_spec::parse(5, "cd + c'd' + abe + a'b'e'", "fig4");
  const janus_result r = engine.run(t);
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_EQ(r.solution_size(), 12);  // paper: 3×4 optimum
  EXPECT_EQ(r.lower_bound, 12);
  EXPECT_LE(r.new_upper_bound, 15);
  EXPECT_TRUE(r.solution->realizes(t.function()));
}

TEST(Janus, BoundSandwichHoldsOnRandomFunctions) {
  rng r(91);
  janus_synthesizer engine(fast_options());
  for (int iter = 0; iter < 8; ++iter) {
    const target_spec t =
        target_spec::from_function(random_function(r, 4, 0.4));
    const janus_result res = engine.run(t);
    ASSERT_TRUE(res.solution.has_value());
    EXPECT_TRUE(res.solution->realizes(t.function()));
    EXPECT_LE(res.lower_bound, res.solution_size());
    EXPECT_LE(res.solution_size(), res.new_upper_bound);
    EXPECT_LE(res.new_upper_bound, res.old_upper_bound);
  }
}

class JanusVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JanusVsBruteForce, CompleteModeMatchesTheTrueOptimum) {
  rng r(GetParam());
  janus_options o = fast_options();
  // Complete settings: no heuristic restrictions.
  o.lm.encode.use_degree_rules = false;
  o.lm.encode.tl_isop_literals_only = false;
  janus_synthesizer engine(o);
  for (int iter = 0; iter < 4; ++iter) {
    const target_spec t =
        target_spec::from_function(random_function(r, 3, 0.5));
    const janus_result res = engine.run(t);
    ASSERT_TRUE(res.solution.has_value());
    const int optimum = brute_force_optimum(t, res.new_upper_bound);
    EXPECT_EQ(res.solution_size(), optimum)
        << "f = " << t.sop().str() << " (janus " << res.solution_dims() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JanusVsBruteForce,
                         ::testing::Values(101u, 102u, 103u));

TEST(Janus, DefaultModeStaysCloseToTheOptimumOnSmallFunctions) {
  // With heuristic rules on, JANUS is approximate — it must still verify and
  // stay within the bound sandwich, and in this sweep never exceed the true
  // optimum by more than a couple of switches.
  rng r(104);
  janus_synthesizer engine(fast_options());
  for (int iter = 0; iter < 6; ++iter) {
    const target_spec t =
        target_spec::from_function(random_function(r, 3, 0.5));
    const janus_result res = engine.run(t);
    ASSERT_TRUE(res.solution.has_value());
    const int optimum = brute_force_optimum(t, res.new_upper_bound);
    EXPECT_GE(res.solution_size(), optimum);
    EXPECT_LE(res.solution_size(), optimum + 2)
        << "f = " << t.sop().str();
  }
}

TEST(Janus, DivideAndSynthesizeProducesVerifiedSolutions) {
  janus_synthesizer engine(fast_options());
  const target_spec t =
      target_spec::parse(5, "cd + c'd' + abe + a'b'e'", "fig4");
  const auto ds =
      engine.divide_and_synthesize(t, deadline::in_seconds(30.0), 1);
  ASSERT_TRUE(ds.has_value());
  EXPECT_EQ(ds->method, "DS");
  EXPECT_TRUE(ds->mapping.realizes(t.function()));
}

TEST(Janus, ProbesAreRecorded) {
  janus_synthesizer engine(fast_options());
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  const janus_result r = engine.run(t);
  EXPECT_FALSE(r.probes.empty());
  for (const probe_record& p : r.probes) {
    EXPECT_GE(p.d.size(), 1);
  }
}

// --- baselines -------------------------------------------------------------

TEST(Baselines, OptionPresetsConfigureTheEncoders) {
  const janus_options base = fast_options();
  const janus_options exact = exact6_options(base);
  EXPECT_EQ(exact.bound_set, upper_bounds::oub);
  EXPECT_FALSE(exact.lm.encode.use_degree_rules);
  EXPECT_FALSE(exact.lm.encode.strict_product_rules);
  const janus_options approx = approx6_options(base);
  EXPECT_TRUE(approx.lm.encode.strict_product_rules);
  EXPECT_EQ(approx.bound_set, upper_bounds::oub);
}

TEST(Baselines, AllMethodsProduceVerifiedSolutions) {
  const target_spec t = target_spec::parse(4, "ab + b'c + ad");
  const janus_options base = fast_options();

  janus_synthesizer exact(exact6_options(base));
  const janus_result re = exact.run(t);
  ASSERT_TRUE(re.solution.has_value());
  EXPECT_TRUE(re.solution->realizes(t.function()));

  janus_synthesizer approx(approx6_options(base));
  const janus_result ra = approx.run(t);
  ASSERT_TRUE(ra.solution.has_value());
  EXPECT_TRUE(ra.solution->realizes(t.function()));

  const janus_result rh = run_heuristic11(t, base);
  ASSERT_TRUE(rh.solution.has_value());
  EXPECT_TRUE(rh.solution->realizes(t.function()));

  const janus_result rp = run_pcircuit9(t, base);
  ASSERT_TRUE(rp.solution.has_value());
  EXPECT_TRUE(rp.solution->realizes(t.function()));

  janus_synthesizer full(base);
  const janus_result rj = full.run(t);
  ASSERT_TRUE(rj.solution.has_value());
  // JANUS should not lose to the approximate or decomposition baselines here.
  EXPECT_LE(rj.solution_size(), ra.solution_size());
  EXPECT_LE(rj.solution_size(), rp.solution_size());
}

TEST(Baselines, Heuristic11ReportsItsSatWork) {
  // The local search shrinks the bound solution (16 -> 9 switches here), so
  // it probes, and every probe's solver counters must reach sat_totals.
  const target_spec t = target_spec::parse(4, "abc + a'b'd + bc'd' + a'cd");
  const janus_result r = run_heuristic11(t, fast_options());
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_TRUE(r.solution->realizes(t.function()));
  EXPECT_FALSE(r.probes.empty());
  EXPECT_GT(r.sat_totals.propagations, 0u);
}

TEST(Baselines, PcircuitHandlesConstantCofactors) {
  // f = a — cofactor on the split variable is constant 1 / constant 0.
  const target_spec t = target_spec::parse(3, "a");
  const janus_result r = run_pcircuit9(t, fast_options());
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_TRUE(r.solution->realizes(t.function()));
}

// --- JANUS-MF ----------------------------------------------------------------

TEST(JanusMf, RealizesAllOutputsAndNeverRegresses) {
  std::vector<target_spec> targets;
  targets.push_back(target_spec::parse(4, "ab + c'd", "o0"));
  targets.push_back(target_spec::parse(4, "a'c + bd", "o1"));
  targets.push_back(target_spec::parse(4, "abd'", "o2"));
  janus_options o = fast_options();
  o.time_limit_s = 120.0;
  const janus_mf_result r = run_janus_mf(targets, o);

  std::vector<bf::truth_table> fns;
  for (const auto& t : targets) {
    fns.push_back(t.function());
  }
  EXPECT_TRUE(r.straightforward.realizes(fns));
  EXPECT_TRUE(r.improved.realizes(fns));
  EXPECT_LE(r.improved_size(), r.straightforward_size());
  EXPECT_EQ(r.improved.num_outputs(), 3);
}

TEST(JanusMf, SingleOutputDegeneratesToJanus) {
  std::vector<target_spec> targets;
  targets.push_back(target_spec::parse(3, "ab + c", "solo"));
  const janus_mf_result r = run_janus_mf(targets, fast_options());
  EXPECT_TRUE(r.improved.realizes({targets[0].function()}));
}

}  // namespace
}  // namespace janus::synth
