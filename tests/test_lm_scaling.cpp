// Tests for the LM solver's scaling guards: the lattice-info cache (counts
// and lengths eager, path cells lazy and equal to the enumerator's), the
// a-priori encoding-size estimate, and the clause-cap skip path.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "lm/encoding.hpp"
#include "lm/lm_solver.hpp"
#include "lm/structural.hpp"
#include "synth/bounds.hpp"

namespace janus::lm {
namespace {

using lattice::dims;

TEST(LatticeInfoCache, ReturnsStableCachedEntries) {
  lattice_info_cache cache;
  const lattice_info& a = cache.get({3, 3});
  const lattice_info& b = cache.get({3, 3});
  EXPECT_EQ(&a, &b);  // same entry, not a copy
  EXPECT_EQ(a.paths_4tb.size(), 9u);
  EXPECT_EQ(a.paths_8lr.size(), 17u);
  EXPECT_FALSE(a.oversized);
}

TEST(LatticeInfoCache, OversizedLatticesAreFlagged) {
  lattice_info_cache tiny(/*max_paths=*/8);
  const lattice_info& info = tiny.get({4, 4});  // 36 paths > 8
  EXPECT_TRUE(info.oversized);
  EXPECT_EQ(info.paths_4tb.size(), 0u);
  EXPECT_EQ(info.paths_8lr.size(), 0u);
  EXPECT_FALSE(info.paths_4tb.materialized());
}

/// What one view must hold, straight from the enumerator: every path's
/// cells in enumeration order, the per-length counts and the cell total.
struct enumerated_view {
  std::vector<std::vector<std::uint16_t>> paths;
  std::vector<std::uint32_t> length_counts;
  std::uint64_t cells = 0;
};

enumerated_view enumerate_view(const dims& d, lattice::connectivity conn) {
  enumerated_view v;
  lattice::enumerate_paths(d, conn, [&](const lattice::path& p) {
    v.paths.push_back(p.cells);
    v.cells += p.cells.size();
    if (v.length_counts.size() <= p.cells.size()) {
      v.length_counts.resize(p.cells.size() + 1, 0);
    }
    ++v.length_counts[p.cells.size()];
    return true;
  });
  return v;
}

/// Checks one view against the enumerator: counts and lengths before any
/// cells exist, then the materialized cells in the enumerator's order.
void expect_view_matches(const path_family& family, const dims& d,
                         lattice::connectivity conn) {
  const enumerated_view want = enumerate_view(d, conn);
  EXPECT_FALSE(family.materialized()) << d.str();
  EXPECT_EQ(family.size(), want.paths.size()) << d.str();
  EXPECT_EQ(family.total_cells(), want.cells) << d.str();
  EXPECT_EQ(family.length_counts(), want.length_counts) << d.str();
  const int want_max = want.length_counts.empty()
                           ? 0
                           : static_cast<int>(want.length_counts.size()) - 1;
  EXPECT_EQ(family.max_length(), want_max) << d.str();
  const lattice::path_list& cells = family.cells();
  EXPECT_TRUE(family.materialized()) << d.str();
  ASSERT_EQ(cells.size(), want.paths.size()) << d.str();
  EXPECT_EQ(cells.total_cells(), want.cells) << d.str();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(cells[i], want.paths[i]))
        << d.str() << " path " << i;
  }
}

TEST(LatticeInfoCache, LazyViewsEqualTheEnumerator) {
  std::vector<dims> all;
  for (int rows = 1; rows <= 6; ++rows) {
    for (int cols = 1; cols <= 6; ++cols) {
      all.push_back({rows, cols});
    }
  }
  for (int cols = 7; cols <= 17; ++cols) {
    all.push_back({2, cols});  // the DS ladder's 2^cols dual views
  }
  lattice_info_cache cache;
  for (const dims& d : all) {
    const lattice_info& info = cache.get(d);
    ASSERT_FALSE(info.oversized) << d.str();
    expect_view_matches(info.paths_4tb, d,
                        lattice::connectivity::four_top_bottom);
    expect_view_matches(info.paths_8lr, d,
                        lattice::connectivity::eight_left_right);
  }
}

TEST(LatticeInfoCache, CapMarksOversizedExactlyAsTheEnumeratorCounts) {
  // 4x4 has 36 primal and 78 dual paths: a cap below either count marks
  // the lattice oversized, one at or above both keeps it.
  for (const std::size_t cap : {8u, 35u, 36u, 77u, 78u, 100u}) {
    lattice_info_cache cache(cap);
    const lattice_info& info = cache.get({4, 4});
    EXPECT_EQ(info.oversized, cap < 78) << cap;
    if (!info.oversized) {
      expect_view_matches(info.paths_4tb, {4, 4},
                          lattice::connectivity::four_top_bottom);
    }
  }
}

TEST(LatticeInfoCache, CopiesShareTheMaterializedCells) {
  lattice_info_cache cache;
  const lattice_info& cached = cache.get({3, 4});
  const lattice_info copy = cached;  // janusbench returns entries by value
  EXPECT_EQ(copy.paths_8lr.size(), cached.paths_8lr.size());
  const lattice::path_list& cells = copy.paths_8lr.cells();
  EXPECT_TRUE(cached.paths_8lr.materialized());
  EXPECT_EQ(&cells, &cached.paths_8lr.cells());
  EXPECT_FALSE(cached.paths_4tb.materialized());
}

TEST(LatticeInfoCache, StructuralChecksNeverMaterialize) {
  const target_spec t = target_spec::parse(5, "abcde + a'b'c'd'e' + ab'c");
  lattice_info_cache cache;
  std::vector<dims> probed;
  for (int rows = 1; rows <= 4; ++rows) {
    for (int cols = 1; cols <= 8; ++cols) {
      (void)structural_check(t, cache.get({rows, cols}));
      probed.push_back({rows, cols});
    }
  }
  const int lb = synth::lower_bound_structural(t, cache, 40);
  EXPECT_GT(lb, 1);
  for (int s = 1; s <= lb; ++s) {
    for (int m = 1; m <= s; ++m) {
      if (s % m == 0) {
        probed.push_back({m, s / m});
      }
    }
  }
  for (const dims& d : probed) {
    const lattice_info& info = cache.get(d);
    EXPECT_FALSE(info.paths_4tb.materialized()) << d.str();
    EXPECT_FALSE(info.paths_8lr.materialized()) << d.str();
  }
  EXPECT_EQ(cache.materialized_cells(), 0u);
}

TEST(LatticeInfoCache, EncodingMaterializesOnlyTheEncodedSide) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  const lattice_info& info = cache.get({3, 3});
  const std::uint64_t primal =
      estimate_encoding_clauses(t, info, false, lm_encode_options{});
  const std::uint64_t dual =
      estimate_encoding_clauses(t, info, true, lm_encode_options{});
  EXPECT_GT(primal, 0u);
  EXPECT_GT(dual, 0u);
  EXPECT_FALSE(info.paths_4tb.materialized());
  EXPECT_FALSE(info.paths_8lr.materialized());
  const lm_encoder enc(t, info, /*dual_side=*/true, lm_encode_options{});
  EXPECT_FALSE(info.paths_4tb.materialized());
  EXPECT_TRUE(info.paths_8lr.materialized());
  EXPECT_EQ(cache.materialized_cells(), info.paths_8lr.total_cells());
}

TEST(LatticeInfoCache, ConcurrentFirstUseMaterializesOnce) {
  // Pool workers share the cache: several threads ask for the same entry,
  // encode its dual side through the cached entry or a copy, and read the
  // materialized total, all at once. Every thread must see the one list.
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  constexpr int kThreads = 4;
  std::vector<const lattice::path_list*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      const lattice_info& cached = cache.get({4, 3});
      const lattice_info copy = cached;
      const lattice_info& use = k % 2 == 0 ? cached : copy;
      const lm_encoder enc(t, use, /*dual_side=*/true, lm_encode_options{});
      EXPECT_GT(enc.stats().num_clauses, 0u);
      (void)cache.materialized_cells();
      seen[static_cast<std::size_t>(k)] = &use.paths_8lr.cells();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const lattice_info& info = cache.get({4, 3});
  for (const lattice::path_list* list : seen) {
    EXPECT_EQ(list, &info.paths_8lr.cells());
  }
  EXPECT_FALSE(info.paths_4tb.materialized());
  EXPECT_EQ(cache.materialized_cells(), info.paths_8lr.total_cells());
}

TEST(EncodingEstimate, TracksTheRealClauseCountWithinTwofold) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  for (const dims d : {dims{3, 3}, dims{4, 2}, dims{2, 4}}) {
    const lattice_info& info = cache.get(d);
    for (const bool dual : {false, true}) {
      lm_encode_options o;
      o.tl_isop_literals_only = false;  // match the estimator's TL bound
      const std::uint64_t estimate =
          estimate_encoding_clauses(t, info, dual, o);
      const lm_encoder enc(t, info, dual, o);
      const std::uint64_t actual = enc.stats().num_clauses;
      EXPECT_GE(estimate * 2, actual) << d.str() << " dual=" << dual;
      EXPECT_LE(estimate, actual * 4) << d.str() << " dual=" << dual;
    }
  }
}

TEST(EncodingEstimate, GrowsWithLatticeSize) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  const lm_encode_options o;
  const std::uint64_t small =
      estimate_encoding_clauses(t, cache.get({2, 2}), false, o);
  const std::uint64_t large =
      estimate_encoding_clauses(t, cache.get({4, 4}), false, o);
  EXPECT_LT(small, large);
}

TEST(LmSolver, ClauseCapSkipsInsteadOfBuilding) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  lm_options o;
  o.max_encoding_clauses = 10;  // nothing fits
  const lm_result r = solve_lm(t, cache.get({3, 3}), o);
  EXPECT_EQ(r.status, lm_status::skipped);
}

TEST(LmSolver, ClauseCapFallsBackToTheCheaperSide) {
  // With a cap between the two sides' estimates, the solver must still run
  // using whichever side fits.
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  const lattice_info& info = cache.get({3, 3});
  lm_encode_options eo;
  const std::uint64_t primal = estimate_encoding_clauses(t, info, false, eo);
  const std::uint64_t dual = estimate_encoding_clauses(t, info, true, eo);
  lm_options o;
  o.encode = eo;
  o.max_encoding_clauses = std::max(primal, dual);  // both or one fit
  const lm_result r = solve_lm(t, info, o);
  EXPECT_EQ(r.status, lm_status::realizable);
  EXPECT_TRUE(r.mapping->realizes(t.function()));
}

TEST(LmSolver, WideInputTargetsStayBounded) {
  // An 8-input target on a mid-size lattice: the estimate-driven cap must
  // keep the encoding in the configured budget or skip — never blow up.
  bf::cover c(8);
  bf::cube p1;
  bf::cube p2;
  for (int v = 0; v < 8; ++v) {
    p1.add_literal(v, false);
    p2.add_literal(v, v % 2 == 0);
  }
  c.add(p1);
  c.add(p2);
  const target_spec t = target_spec::from_cover(c);
  lattice_info_cache cache;
  lm_options o;
  o.max_encoding_clauses = 200'000;
  o.sat_time_limit_s = 1.0;
  o.conflict_budget = 5000;
  const lm_result r = solve_lm(t, cache.get({4, 6}), o);
  if (r.status != lm_status::skipped) {
    EXPECT_LE(r.encoding.num_clauses, 200'000u);
  }
}

}  // namespace
}  // namespace janus::lm
