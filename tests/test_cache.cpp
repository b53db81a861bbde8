// The NP-canonical solution cache: transform algebra, canonicalization,
// lattice re-mapping soundness, store semantics, the persistent layer, and
// the janus/batch wiring — plus the regression tests for the starved
// JANUS-MF run and the malformed-PLA crash it used to cause.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include <unistd.h>

#include "bf/np_transform.hpp"
#include "cache/solution_cache.hpp"
#include "instances/table2.hpp"
#include "synth/batch.hpp"
#include "synth/janus.hpp"
#include "synth/janus_mf.hpp"
#include "util/rng.hpp"

namespace janus {
namespace {

using bf::np_canonicalize;
using bf::np_transform;
using bf::truth_table;
using cache::solution_cache;
using cache::transform_mapping;
using lattice::cell_assign;
using lattice::dims;
using lattice::lattice_mapping;
using lm::target_spec;

truth_table random_table(rng& r, int n, double density = 0.4) {
  truth_table f(n);
  for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
    f.set(m, r.next_bool(density));
  }
  return f;
}

np_transform random_transform(rng& r, int n) {
  np_transform t = np_transform::identity(n);
  for (int i = n - 1; i > 0; --i) {
    std::swap(t.perm[static_cast<std::size_t>(i)],
              t.perm[static_cast<std::size_t>(r.next_below(
                  static_cast<std::uint64_t>(i + 1)))]);
  }
  t.flips = static_cast<std::uint32_t>(r.next_below(std::uint64_t{1} << n));
  return t;
}

lattice_mapping random_mapping(rng& r, const dims& d, int n) {
  lattice_mapping m(d, n);
  for (cell_assign& c : m.cells()) {
    const auto pick = r.next_below(4);
    c = pick == 0   ? cell_assign::zero()
        : pick == 1 ? cell_assign::one()
                    : cell_assign::lit(
                          static_cast<int>(r.next_below(
                              static_cast<std::uint64_t>(n))),
                          pick == 3);
  }
  return m;
}

// --- transform algebra -------------------------------------------------------

TEST(NpTransform, InverseRoundTripsTables) {
  rng r(301);
  for (int n : {2, 3, 5, 8}) {
    for (int iter = 0; iter < 20; ++iter) {
      const truth_table f = random_table(r, n);
      const np_transform t = random_transform(r, n);
      EXPECT_EQ(t.inverse().apply(t.apply(f)), f) << "n=" << n;
      EXPECT_EQ(np_transform::compose(t.inverse(), t),
                np_transform::identity(n));
    }
  }
}

TEST(NpTransform, ComposeMatchesSequentialApplication) {
  rng r(302);
  for (int iter = 0; iter < 30; ++iter) {
    const int n = 2 + static_cast<int>(r.next_below(5));
    const truth_table f = random_table(r, n);
    const np_transform t1 = random_transform(r, n);
    const np_transform t2 = random_transform(r, n);
    EXPECT_EQ(np_transform::compose(t2, t1).apply(f), t2.apply(t1.apply(f)));
  }
}

TEST(NpTransform, ApplyPreservesOnsetSize) {
  rng r(303);
  const truth_table f = random_table(r, 6);
  const np_transform t = random_transform(r, 6);
  EXPECT_EQ(t.apply(f).count_ones(), f.count_ones());
}

TEST(NpCanonical, EquivalentFunctionsCanonicalizeIdentically) {
  // Exact (exhaustive) canonicalization below the threshold: every member of
  // an NP class maps to the same representative.
  rng r(304);
  for (int n : {3, 4, 5}) {
    for (int iter = 0; iter < 10; ++iter) {
      const truth_table f = random_table(r, n);
      const auto canon_f = np_canonicalize(f);
      for (int k = 0; k < 4; ++k) {
        const truth_table g = random_transform(r, n).apply(f);
        const auto canon_g = np_canonicalize(g);
        EXPECT_EQ(canon_f.table, canon_g.table);
        EXPECT_EQ(canon_g.transform.apply(g), canon_g.table);
      }
    }
  }
}

TEST(NpCanonical, GreedyModeIsSoundAndDeterministic) {
  rng r(305);
  for (int iter = 0; iter < 10; ++iter) {
    const truth_table f = random_table(r, 9);  // above the exact threshold
    const auto c1 = np_canonicalize(f);
    const auto c2 = np_canonicalize(f);
    EXPECT_EQ(c1.table, c2.table);
    EXPECT_EQ(c1.transform, c2.transform);
    EXPECT_EQ(c1.transform.apply(f), c1.table);
    EXPECT_LE(c1.table.compare(f), 0);  // never worse than the input
  }
}

// --- lattice re-mapping ------------------------------------------------------

TEST(TransformMapping, TransformedLatticeRealizesTransformedFunction) {
  rng r(306);
  for (int iter = 0; iter < 25; ++iter) {
    const int n = 2 + static_cast<int>(r.next_below(4));
    const dims d{2 + static_cast<int>(r.next_below(3)),
                 2 + static_cast<int>(r.next_below(3))};
    const lattice_mapping m = random_mapping(r, d, n);
    const truth_table f = m.realized_function();
    const np_transform t = random_transform(r, n);
    const lattice_mapping mapped = transform_mapping(m, t);
    EXPECT_EQ(mapped.grid(), d);
    EXPECT_TRUE(mapped.realizes(t.apply(f)));
    EXPECT_TRUE(transform_mapping(mapped, t.inverse()).realizes(f));
  }
}

// --- the store ---------------------------------------------------------------

TEST(SolutionCache, RoundTripsAcrossTheWholeNpClass) {
  // The issue's property test: canonicalize → solve → store, then every
  // random NP transform of the function must hit and inverse-map to a
  // lattice that realizes it (realizes() checks all minterms).
  rng r(307);
  synth::janus_synthesizer engine{synth::janus_options{}};
  solution_cache store;
  const target_spec seed = target_spec::parse(4, "ab + b'c + c'd");
  const auto solved = engine.run(seed);
  ASSERT_TRUE(solved.solution.has_value());
  store.store(seed.function(), *solved.solution, solved.lower_bound);

  for (int iter = 0; iter < 20; ++iter) {
    const np_transform t = random_transform(r, 4);
    const truth_table variant = t.apply(seed.function());
    const auto hit = store.lookup(variant);
    ASSERT_TRUE(hit.has_value()) << "transform " << iter;
    EXPECT_TRUE(hit->mapping.realizes(variant));
    EXPECT_EQ(hit->mapping.size(), solved.solution_size());
    EXPECT_EQ(hit->lower_bound, solved.lower_bound);
  }
  EXPECT_EQ(store.stats().hits, 20u);
  EXPECT_EQ(store.stats().misses, 0u);
}

TEST(SolutionCache, MissesDistinctClassesAndKeepsSmallerMapping) {
  solution_cache store;
  const target_spec a = target_spec::parse(3, "ab + c");
  EXPECT_FALSE(store.lookup(a.function()).has_value());
  EXPECT_EQ(store.stats().misses, 1u);

  synth::janus_synthesizer engine{synth::janus_options{}};
  const auto solved = engine.run(a);
  ASSERT_TRUE(solved.solution.has_value());
  store.store(a.function(), *solved.solution, solved.lower_bound);
  // A worse realization of the same class must not displace the better one.
  store.store(a.function(), solved.solution->padded_to_rows(
                                solved.solution->grid().rows + 2),
              solved.lower_bound);
  const auto hit = store.lookup(a.function());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->mapping.size(), solved.solution_size());
  EXPECT_EQ(store.size(), 1u);
}

TEST(SolutionCache, PersistsThroughSaveAndLoad) {
  synth::janus_synthesizer engine{synth::janus_options{}};
  solution_cache store;
  for (const char* text : {"ab + c", "a'b + bc'", "ab + cd"}) {
    const target_spec t = target_spec::parse(4, text);
    const auto r = engine.run(t);
    ASSERT_TRUE(r.solution.has_value());
    store.store(t.function(), *r.solution, r.lower_bound);
  }
  std::ostringstream out;
  store.save(out);

  solution_cache reloaded;
  std::istringstream in(out.str());
  reloaded.load(in);
  EXPECT_EQ(reloaded.size(), store.size());
  for (const char* text : {"ab + c", "a'b + bc'", "ab + cd"}) {
    const target_spec t = target_spec::parse(4, text);
    const auto hit = reloaded.lookup(t.function());
    ASSERT_TRUE(hit.has_value()) << text;
    EXPECT_TRUE(hit->mapping.realizes(t.function())) << text;
  }
}

TEST(SolutionCache, RejectsMalformedAndCorruptFiles) {
  const auto load_text = [](const std::string& text) {
    solution_cache store;
    std::istringstream in(text);
    store.load(in);
  };
  EXPECT_THROW(load_text("not a cache\n"), check_error);
  EXPECT_THROW(load_text("janus-solution-cache v1\njunk\n"), check_error);
  EXPECT_THROW(load_text("janus-solution-cache v1\n2 1 2 1 x p0,p1\n"),
               check_error);  // bad hex
  EXPECT_THROW(load_text("janus-solution-cache v1\n2 1 2 1 8 p0,p5\n"),
               check_error);  // variable out of range
  EXPECT_THROW(load_text("janus-solution-cache v1\n2 1 2 1 8 p0\n"),
               check_error);  // too few cells
  // Well-formed but wrong: [p0, 1] stacked realizes x0, not x0·x1 — the
  // oracle check at load time must refuse it.
  EXPECT_THROW(load_text("janus-solution-cache v1\n2 1 2 1 8 p0,1\n"),
               check_error);
  // A valid entry loads: a 2x1 column [p0, p1] realizes x0·x1 (hex 8 =
  // minterm 3).
  solution_cache ok;
  std::istringstream in("janus-solution-cache v1\n2 1 2 1 8 p0,p1\n");
  ok.load(in);
  EXPECT_EQ(ok.size(), 1u);
}

// --- engine / batch wiring ---------------------------------------------------

TEST(SolutionCache, JanusServesEquivalentTargetFromStore) {
  solution_cache store;
  synth::janus_options o;
  o.solutions = &store;
  synth::janus_synthesizer engine(o);

  const target_spec first = target_spec::parse(4, "ab + c'd");
  const auto r1 = engine.run(first);
  ASSERT_TRUE(r1.solution.has_value());
  EXPECT_FALSE(r1.from_cache);

  // NP-equivalent variant: swap (a, c) and complement b.
  const target_spec second = target_spec::parse(4, "cb' + a'd");
  const auto r2 = engine.run(second);
  ASSERT_TRUE(r2.solution.has_value());
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r2.ub_method, "cache");
  EXPECT_TRUE(r2.probes.empty());
  EXPECT_EQ(r2.solution_size(), r1.solution_size());
  EXPECT_TRUE(r2.solution->realizes(second.function()));
}

TEST(SolutionCache, BatchCountsHitsAndMisses) {
  std::vector<target_spec> targets;
  targets.push_back(target_spec::parse(4, "ab + cd", "t0"));
  targets.push_back(target_spec::parse(4, "ac + bd", "t1"));  // same class
  targets.push_back(target_spec::parse(4, "a + b + c + d", "t2"));
  solution_cache store;
  synth::batch_options o;
  o.base.solutions = &store;
  const auto b1 = synth::synthesize_batch(targets, o);
  EXPECT_EQ(b1.solved, 3);
  EXPECT_EQ(b1.cache_hits + b1.cache_misses, 3u);
  EXPECT_GE(b1.cache_hits, 1u);  // t1 rides on t0's class

  // Second pass with workers: every class is stored, so all three hit even
  // when looked up concurrently (the store is mutex-guarded).
  o.jobs = 4;
  const auto b2 = synth::synthesize_batch(targets, o);
  EXPECT_EQ(b2.cache_hits, 3u);
  EXPECT_EQ(b2.cache_misses, 0u);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(b2.results[i].solution_size(), b1.results[i].solution_size());
    EXPECT_TRUE(b2.results[i].solution->realizes(targets[i].function()));
  }
}

// A Table II batch run twice against one on-disk store: run 2 loads the
// store run 1 saved into a fresh cache and must answer at least 30% of the
// targets from it, at bit-identical sizes. Every hit has already passed the
// BFS-oracle re-check inside solution_cache::lookup.
TEST(SolutionCache, TableTwoBatchRerunsFromPersistedStore) {
  std::vector<target_spec> targets;
  for (const instances::table2_row& row : instances::table2_rows()) {
    if (row.inputs <= 6 && row.products <= 8 && targets.size() < 12) {
      targets.push_back(instances::make_table2_instance(row, nullptr, 0));
    }
  }
  ASSERT_EQ(targets.size(), 12u);
  const auto run_batch = [&](solution_cache* store) {
    synth::batch_options o;
    o.base.time_limit_s = 30.0;
    o.base.lm.sat_time_limit_s = 10.0;
    o.base.solutions = store;
    o.jobs = 1;
    return synth::synthesize_batch(targets, o);
  };
  const std::string path = ::testing::TempDir() + "janus_cache_rerun_" +
                           std::to_string(::getpid()) + ".store";
  solution_cache first_store;
  const auto first = run_batch(&first_store);
  first_store.save_file(path);

  solution_cache second_store;
  ASSERT_TRUE(second_store.load_file(path));
  std::remove(path.c_str());
  const auto second = run_batch(&second_store);

  EXPECT_GT(second.cache_hits, 0u);
  EXPECT_GE(static_cast<double>(second.cache_hits),
            0.30 * static_cast<double>(targets.size()));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(second.results[i].solution_size(),
              first.results[i].solution_size())
        << targets[i].name();
  }
}

TEST(SolutionCache, MismatchedPrecomputedCanonicalIsRejected) {
  solution_cache store;
  const target_spec a = target_spec::parse(3, "ab + c");
  const target_spec b = target_spec::parse(3, "abc");
  synth::janus_synthesizer engine{synth::janus_options{}};
  const auto solved = engine.run(a);
  ASSERT_TRUE(solved.solution.has_value());
  // Pairing a's function with b's canonical form must fail loudly instead of
  // persisting a poisoned entry.
  EXPECT_THROW(store.store(store.canonicalize(b.function()), a.function(),
                           *solved.solution, solved.lower_bound),
               check_error);
}

TEST(Janus, AllBoundMethodsDisabledThrowsTypedError) {
  synth::janus_options o;
  o.use_dp = false;
  o.use_ps = false;
  o.use_dps = false;
  o.use_ips = false;
  o.use_idps = false;
  o.use_ds = false;
  synth::janus_synthesizer engine(o);
  // The dedicated type lets JANUS-MF degrade on exactly this condition while
  // other check_errors stay fatal.
  EXPECT_THROW((void)engine.run(target_spec::parse(3, "ab + c")),
               synth::no_upper_bound_error);
}

// --- regressions: starved JANUS-MF, malformed PLA ----------------------------

TEST(JanusMfRegression, FailedPerOutputRunDegradesToConstructiveBounds) {
  // With every upper-bound method disabled each per-output run() throws "no
  // upper-bound construction succeeded" — the old MF aborted on the first
  // output; now each such output degrades to the forced constructive
  // fallback, is flagged, and the merge still verifies.
  std::vector<target_spec> targets;
  targets.push_back(target_spec::parse(4, "ab + c'd", "o0"));
  targets.push_back(target_spec::parse(4, "a'c + bd", "o1"));
  targets.push_back(target_spec::parse(4, "abd' + b'c", "o2"));
  synth::janus_options o;
  o.use_dp = false;
  o.use_ps = false;
  o.use_dps = false;
  o.use_ips = false;
  o.use_idps = false;
  o.use_ds = false;
  synth::janus_mf_result r;
  ASSERT_NO_THROW(r = synth::run_janus_mf(targets, o));
  std::vector<bf::truth_table> fns;
  for (const auto& t : targets) {
    fns.push_back(t.function());
  }
  EXPECT_TRUE(r.straightforward.realizes(fns));
  EXPECT_TRUE(r.improved.realizes(fns));
  EXPECT_TRUE(r.hit_time_limit);
  ASSERT_EQ(r.output_time_limited.size(), targets.size());
  for (const bool limited : r.output_time_limited) {
    EXPECT_TRUE(limited);
  }
}

TEST(JanusMfRegression, ZeroBudgetCompletesAndFlagsConsistently) {
  // time_limit 0 starves the Part-1 budget split; the floor still gives each
  // output a usable sliver and the run completes with verified merges.
  std::vector<target_spec> targets;
  targets.push_back(target_spec::parse(4, "ab + c'd", "o0"));
  targets.push_back(target_spec::parse(4, "a'c + bd", "o1"));
  targets.push_back(target_spec::parse(4, "ad + b'c'", "o2"));
  synth::janus_options o;
  o.time_limit_s = 0.0;
  o.lm.sat_time_limit_s = 1.0;
  synth::janus_mf_result r;
  ASSERT_NO_THROW(r = synth::run_janus_mf(targets, o));
  std::vector<bf::truth_table> fns;
  for (const auto& t : targets) {
    fns.push_back(t.function());
  }
  EXPECT_TRUE(r.straightforward.realizes(fns));
  EXPECT_TRUE(r.improved.realizes(fns));
  bool any_limited = false;
  for (const bool limited : r.output_time_limited) {
    any_limited = any_limited || limited;
  }
  EXPECT_TRUE(r.hit_time_limit || !any_limited);
}

TEST(JanusMfRegression, AmpleBudgetReportsNoStarvedOutputs) {
  std::vector<target_spec> targets;
  targets.push_back(target_spec::parse(3, "ab + c", "o0"));
  targets.push_back(target_spec::parse(3, "a'b'", "o1"));
  synth::janus_options o;
  o.time_limit_s = 60.0;
  o.lm.sat_time_limit_s = 10.0;
  const synth::janus_mf_result r = synth::run_janus_mf(targets, o);
  EXPECT_FALSE(r.hit_time_limit);
  for (const bool limited : r.output_time_limited) {
    EXPECT_FALSE(limited);
  }
}

}  // namespace
}  // namespace janus
