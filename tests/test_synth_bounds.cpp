// Tests for the bound constructions (DP/PS/DPS/IPS/IDPS) and the structural
// lower bound — including the paper's exact Fig. 4 numbers.
#include <gtest/gtest.h>

#include "bf/exact_min.hpp"
#include "instances/table2.hpp"
#include "synth/bounds.hpp"
#include "synth/janus.hpp"
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

TEST(Bounds, Fig4MatchesThePaper) {
  const target_spec t =
      target_spec::parse(5, "cd + c'd' + abe + a'b'e'", "fig4");
  ASSERT_EQ(t.num_products(), 4u);
  ASSERT_EQ(t.degree(), 3);
  ASSERT_EQ(t.num_dual_products(), 6u);
  ASSERT_EQ(t.dual_degree(), 4);

  const auto dp = build_dp(t);
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(dp->mapping.grid(), (lattice::dims{6, 4}));  // paper: 6×4

  const auto ps = build_ps(t);
  ASSERT_TRUE(ps.has_value());
  EXPECT_EQ(ps->mapping.grid(), (lattice::dims{3, 7}));  // paper: 3×7

  const auto dps = build_dps(t);
  ASSERT_TRUE(dps.has_value());
  EXPECT_EQ(dps->mapping.grid(), (lattice::dims{11, 4}));  // paper: 11×4

  lm::lattice_info_cache cache;
  const auto ips = build_ips(t, cache, lm::lm_options{});
  ASSERT_TRUE(ips.has_value());
  EXPECT_EQ(ips->mapping.grid(), (lattice::dims{3, 5}));  // paper: 3×5

  // Paper reports IDPS = 8×4; our verify-guided assembly does one row better.
  const auto idps = build_idps(t);
  ASSERT_TRUE(idps.has_value());
  EXPECT_EQ(idps->mapping.grid().cols, 4);
  EXPECT_LE(idps->size(), 32);  // never worse than the paper's 8×4

  EXPECT_EQ(lower_bound_structural(t, cache, 64), 12);  // paper: lb = 12
}

struct BoundSweep {
  std::uint64_t seed;
  int num_vars;
  double density;
};

class BoundConstructions : public ::testing::TestWithParam<BoundSweep> {};

TEST_P(BoundConstructions, EveryConstructionRealizesTheTarget) {
  const auto p = GetParam();
  rng r(p.seed);
  lm::lattice_info_cache cache;
  for (int iter = 0; iter < 12; ++iter) {
    const target_spec t =
        target_spec::from_function(random_function(r, p.num_vars, p.density));
    const int n = static_cast<int>(t.num_products());
    const int m = static_cast<int>(t.num_dual_products());

    const auto dp = build_dp(t);
    ASSERT_TRUE(dp.has_value());
    EXPECT_TRUE(dp->mapping.realizes(t.function()));
    EXPECT_EQ(dp->mapping.grid(), (lattice::dims{m, n}));

    const auto ps = build_ps(t);
    ASSERT_TRUE(ps.has_value());
    EXPECT_TRUE(ps->mapping.realizes(t.function()));
    EXPECT_EQ(ps->mapping.grid(), (lattice::dims{t.degree(), 2 * n - 1}));

    const auto dps = build_dps(t);
    ASSERT_TRUE(dps.has_value());
    EXPECT_TRUE(dps->mapping.realizes(t.function()));
    EXPECT_EQ(dps->mapping.grid(),
              (lattice::dims{2 * m - 1, t.dual_degree()}));

    const auto ips = build_ips(t, cache, lm::lm_options{});
    ASSERT_TRUE(ips.has_value());
    EXPECT_TRUE(ips->mapping.realizes(t.function()));
    EXPECT_EQ(ips->mapping.grid().rows, t.degree());
    EXPECT_LE(ips->mapping.grid().cols, 2 * n - 1);  // never worse than PS

    const auto idps = build_idps(t);
    ASSERT_TRUE(idps.has_value());
    EXPECT_TRUE(idps->mapping.realizes(t.function()));
    EXPECT_EQ(idps->mapping.grid().cols, t.dual_degree());
    EXPECT_LE(idps->mapping.grid().rows, 2 * m - 1);  // never worse than DPS
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundConstructions,
    ::testing::Values(BoundSweep{71, 4, 0.3}, BoundSweep{72, 4, 0.6},
                      BoundSweep{73, 5, 0.25}, BoundSweep{74, 5, 0.5},
                      BoundSweep{75, 6, 0.2}));

TEST(Bounds, ConstantTargetsAreRejected) {
  const target_spec zero = target_spec::from_function(bf::truth_table(3));
  EXPECT_FALSE(build_dp(zero).has_value());
  EXPECT_FALSE(build_ps(zero).has_value());
  EXPECT_FALSE(build_dps(zero).has_value());
  EXPECT_FALSE(build_idps(zero).has_value());
}

TEST(Bounds, SingleProductTarget) {
  const target_spec t = target_spec::parse(4, "ab'cd");
  const auto ps = build_ps(t);
  ASSERT_TRUE(ps.has_value());
  EXPECT_EQ(ps->mapping.grid(), (lattice::dims{4, 1}));
  EXPECT_TRUE(ps->mapping.realizes(t.function()));
  const auto dp = build_dp(t);
  ASSERT_TRUE(dp.has_value());
  EXPECT_TRUE(dp->mapping.realizes(t.function()));
}

TEST(Bounds, LowerBoundIsSound) {
  // The structural lower bound never exceeds the size of a real solution.
  rng r(81);
  lm::lattice_info_cache cache;
  for (int iter = 0; iter < 10; ++iter) {
    const target_spec t = target_spec::from_function(random_function(r, 4));
    const auto ps = build_ps(t);
    ASSERT_TRUE(ps.has_value());
    const int lb = lower_bound_structural(t, cache, ps->size());
    EXPECT_LE(lb, ps->size());
    EXPECT_GE(lb, 1);
  }
}

TEST(Bounds, LowerBoundSeesProductCounts) {
  // Four 1-literal products need at least four paths.
  const target_spec t = target_spec::parse(4, "a + b + c + d");
  lm::lattice_info_cache cache;
  const int lb = lower_bound_structural(t, cache, 64);
  EXPECT_GE(lb, 4);
}

TEST(Bounds, DivideAndSynthesizeIgnoresWhichPathCacheItUses) {
  // DS children probe through the parent's path cache; paths depend only on
  // the grid and max_paths, so an external shared cache changes nothing.
  const target_spec t =
      target_spec::parse(5, "cd + c'd' + abe + a'b'e'", "fig4");
  janus_options options;
  options.time_limit_s = 60.0;
  options.lm.sat_time_limit_s = 20.0;
  janus_synthesizer own(options);
  const auto own_ds = own.divide_and_synthesize(t, deadline::in_seconds(60.0), 1);

  lm::lattice_info_cache shared(options.max_paths);
  options.lattice_info = &shared;
  janus_synthesizer external(options);
  const auto shared_ds =
      external.divide_and_synthesize(t, deadline::in_seconds(60.0), 1);

  ASSERT_TRUE(own_ds.has_value());
  ASSERT_TRUE(shared_ds.has_value());
  EXPECT_EQ(own_ds->mapping, shared_ds->mapping);
  EXPECT_TRUE(shared_ds->mapping.realizes(t.function()));
}

// Every non-constant target has a verified upper bound whatever the budget:
// PS realizes it, and DP, PS and DPS run in every bound set without reading
// the budget. JANUS relies on this instead of handling an empty bound list,
// so the sweep covers the targets the engine actually builds: random tables,
// the two halves DS splits a cover into, and the product pairs IPS probes.
std::vector<target_spec> derived_targets(const target_spec& t) {
  std::vector<target_spec> out;
  if (t.num_products() < 2) {
    return out;
  }
  // DS: products sorted by literal count, dealt to balance literal totals.
  bf::cover sorted = t.sop();
  sorted.sort_desc_by_literals();
  bf::cover g(t.num_vars());
  bf::cover h(t.num_vars());
  int g_lits = 0;
  int h_lits = 0;
  for (const bf::cube& p : sorted.cubes()) {
    if (g_lits < h_lits ||
        (g_lits == h_lits && g.num_cubes() <= h.num_cubes())) {
      g.add(p);
      g_lits += p.num_literals();
    } else {
      h.add(p);
      h_lits += p.num_literals();
    }
  }
  out.push_back(target_spec::from_cover(g));
  out.push_back(target_spec::from_cover(h));
  // IPS rule iii: the sum of two products, with its minimized dual.
  bf::cover pair(t.num_vars());
  pair.add(t.sop()[0]);
  pair.add(t.sop()[1]);
  const bf::truth_table pair_fn = pair.to_truth_table();
  out.push_back(target_spec::from_function(pair_fn, "",
                                           bf::minimize(pair_fn.dual())));
  return out;
}

TEST(Bounds, EveryNonConstantTargetHasABoundInEveryBoundSet) {
  constexpr int kTablesPerWidth = 500;
  constexpr double kDensities[] = {0.15, 0.5, 0.85};
  lm::lattice_info_cache shared;
  janus_options options;
  options.lattice_info = &shared;
  // An expired budget: only the budget-independent constructions can answer.
  const deadline spent = deadline::in_seconds(0.0);
  rng r(91);
  int checked = 0;
  for (int n = 1; n <= 6; ++n) {
    for (int i = 0; i < kTablesPerWidth; ++i) {
      const target_spec t = target_spec::from_function(
          random_function(r, n, kDensities[i % 3]));
      std::vector<target_spec> targets = derived_targets(t);
      targets.push_back(t);
      for (const target_spec& target : targets) {
        ASSERT_FALSE(target.is_constant());
        const auto ps = build_ps(target);
        ASSERT_TRUE(ps.has_value()) << target.sop().str();
        EXPECT_TRUE(ps->mapping.realizes(target.function()));
        for (const upper_bounds set :
             {upper_bounds::oub, upper_bounds::no_ds, upper_bounds::all}) {
          options.bound_set = set;
          janus_synthesizer engine(options);
          const auto bounds = engine.compute_bounds(target, spent);
          ASSERT_NE(bounds.best(), nullptr) << target.sop().str();
          EXPECT_TRUE(bounds.best()->mapping.realizes(target.function()));
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 6 * kTablesPerWidth);
}

TEST(Bounds, WideStandInKeepsItsBoundsWithoutMaterializingTheDsLadder) {
  // 5xp1_3's DS row ladder counts the 2^k dual paths of 2xk lattices up to
  // 2x16 (about two million cells) but encodes only a few small lattices,
  // so the cache must hold few materialized cells while the bounds stay.
  const target_spec t = instances::make_table2_instance("5xp1_3");
  janus_synthesizer engine{janus_options{}};
  const auto bounds = engine.compute_bounds(t, deadline::never());
  EXPECT_EQ(bounds.lower_bound, 16);
  ASSERT_NE(bounds.best(), nullptr);
  EXPECT_EQ(bounds.best()->size(), 33);
  EXPECT_LT(engine.cache().materialized_cells(), 50'000u);
}

TEST(Candidates, MaximalPairsOnly) {
  const auto c12 = lattice_candidates(12);
  // Every divisor shape of area 12 must be present…
  for (const lattice::dims want :
       {lattice::dims{1, 12}, lattice::dims{2, 6}, lattice::dims{3, 4},
        lattice::dims{4, 3}, lattice::dims{6, 2}, lattice::dims{12, 1}}) {
    EXPECT_NE(std::find(c12.begin(), c12.end(), want), c12.end()) << want.str();
  }
  // …and no pair may dominate another.
  for (const auto& a : c12) {
    EXPECT_LE(a.size(), 12);
    for (const auto& b : c12) {
      if (a != b) {
        EXPECT_FALSE(a.rows >= b.rows && a.cols >= b.cols)
            << a.str() << " dominates " << b.str();
      }
    }
  }
  EXPECT_EQ(lattice_candidates(1).size(), 1u);
}

}  // namespace
}  // namespace janus::synth
