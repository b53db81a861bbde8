// Tests for the LM pipeline: structural check, the paper's path encoding, the
// reachability encoding, dual-problem equivalence, the support projection of
// the value variables, and the designed approximation behavior of the degree
// rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "instances/table2.hpp"
#include "lm/lm_session.hpp"
#include "lm/lm_solver.hpp"
#include "lm/reach_encoding.hpp"
#include "lm/structural.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace janus::lm {
namespace {

using lattice::dims;

lm_options complete_options() {
  lm_options o;
  o.encode.use_degree_rules = false;
  o.encode.tl_isop_literals_only = false;
  return o;
}

TEST(TargetSpec, StatisticsOfTheFig1Function) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'", "fig1");
  EXPECT_EQ(t.num_vars(), 4);
  EXPECT_EQ(t.num_products(), 2u);
  EXPECT_EQ(t.degree(), 4);
  EXPECT_EQ(t.dual_sop().to_truth_table(), t.function().dual());
  EXPECT_FALSE(t.is_constant());
  const target_spec d = t.dual_spec();
  EXPECT_EQ(d.function(), t.dual_function());
  EXPECT_EQ(d.dual_function(), t.function());
}

TEST(TargetSpec, ConstantsAreFlagged) {
  EXPECT_TRUE(target_spec::from_function(bf::truth_table(3)).is_constant());
  EXPECT_TRUE(
      target_spec::from_function(bf::truth_table::ones(3)).is_constant());
}

TEST(Structural, LengthDomination) {
  // Paths of lengths 4,3,3 dominate products of lengths 3,3 but not 4,4.
  const std::vector<std::uint32_t> length_counts = {0, 0, 0, 2, 1};
  EXPECT_TRUE(
      lengths_dominate(length_counts, bf::cover::parse(4, "abc + bcd")));
  EXPECT_FALSE(
      lengths_dominate(length_counts, bf::cover::parse(4, "abcd + a'b'c'd'")));
  EXPECT_FALSE(lengths_dominate(
      length_counts, bf::cover::parse(4, "ab + cd + a'b' + c'd'")));  // count
}

TEST(Structural, LengthDominationMatchesTheSortedPairing) {
  // The histogram walk must agree with pairing both length lists sorted
  // descending, position by position.
  rng r(25);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint32_t> length_counts;
    std::vector<int> paths;
    for (std::size_t k = r.next_below(6); k > 0; --k) {
      const std::size_t len = 1 + r.next_below(6);
      if (length_counts.size() <= len) {
        length_counts.resize(len + 1, 0);
      }
      ++length_counts[len];
      paths.push_back(static_cast<int>(len));
    }
    bf::cover products(8);
    std::vector<int> need;
    for (std::size_t k = 1 + r.next_below(5); k > 0; --k) {
      bf::cube c;
      const int len = 1 + static_cast<int>(r.next_below(7));
      for (int v = 0; v < len; ++v) {
        c.add_literal(v, r.next_below(2) == 0);
      }
      products.add(c);
      need.push_back(len);
    }
    std::sort(paths.rbegin(), paths.rend());
    std::sort(need.rbegin(), need.rend());
    bool paired = need.size() <= paths.size();
    for (std::size_t i = 0; paired && i < need.size(); ++i) {
      paired = paths[i] >= need[i];
    }
    EXPECT_EQ(lengths_dominate(length_counts, products), paired)
        << products.str();
  }
}

TEST(Structural, PaperRejectionExamples) {
  // Section III-A: f = abcd + (conjugate) cannot fit 8×1 (too few products)
  // nor 2×4 (products too short).
  const target_spec t = target_spec::parse(4, "abcd + a'b'c'd'");
  lattice_info_cache cache;
  EXPECT_FALSE(structural_check(t, cache.get({8, 1})));
  EXPECT_FALSE(structural_check(t, cache.get({2, 4})));
  EXPECT_TRUE(structural_check(t, cache.get({4, 2})));
}

TEST(LmSolver, Fig1RealizationsAndRejections) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'", "fig1");
  lattice_info_cache cache;
  lm_options opt;
  // Realizable on 3×3 (the paper's Fig. 1c) and on the minimal 4×2 (Fig. 1d).
  EXPECT_EQ(solve_lm(t, cache.get({3, 3}), opt).status, lm_status::realizable);
  const lm_result min = solve_lm(t, cache.get({4, 2}), opt);
  ASSERT_EQ(min.status, lm_status::realizable);
  ASSERT_TRUE(min.mapping.has_value());
  EXPECT_TRUE(min.mapping->realizes(t.function()));
  // Unrealizable on every size-<8 lattice and on 2×4.
  for (const dims d : {dims{2, 4}, dims{3, 2}, dims{2, 3}, dims{7, 1}, dims{1, 7}}) {
    EXPECT_EQ(solve_lm(t, cache.get(d), opt).status, lm_status::unrealizable)
        << d.str();
  }
}

TEST(LmSolver, SolutionsAreOracleVerified) {
  const target_spec t = target_spec::parse(3, "ab + c");
  lattice_info_cache cache;
  lm_options opt;
  const lm_result r = solve_lm(t, cache.get({2, 2}), opt);
  ASSERT_EQ(r.status, lm_status::realizable);
  EXPECT_TRUE(r.mapping->realizes(t.function()));
}

TEST(LmSolver, EncodingStatisticsAreReported) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  const lm_result r = solve_lm(t, cache.get({3, 3}), complete_options());
  EXPECT_GT(r.encoding.num_vars, 0u);
  EXPECT_GT(r.encoding.num_clauses, 0u);
}

TEST(LmSolver, TimeBudgetYieldsUnknown) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  lm_options opt;
  opt.conflict_budget = 0;
  const lm_result r = solve_lm(t, cache.get({3, 3}), opt);
  EXPECT_EQ(r.status, lm_status::unknown);
}

TEST(LmSolver, OversizedLatticeIsSkipped) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache tiny_cache(/*max_paths=*/4);
  lm_options opt;
  const lm_result r = solve_lm(t, tiny_cache.get({4, 4}), opt);
  EXPECT_EQ(r.status, lm_status::skipped);
}

/// Exhaustive 3-variable sweep: the paper's path encoding (complete settings)
/// and the independent reachability encoding must agree on every function and
/// lattice, and every SAT answer must verify.
class EncodingAgreement : public ::testing::TestWithParam<int> {};

TEST_P(EncodingAgreement, PathAndReachabilityAgree) {
  const int block = GetParam();
  const lm_options opt = complete_options();
  lattice_info_cache cache;
  for (int bits = block * 64 + 1; bits < (block + 1) * 64 && bits < 255;
       ++bits) {
    bf::truth_table f(3);
    for (int m = 0; m < 8; ++m) {
      f.set(static_cast<std::uint64_t>(m), ((bits >> m) & 1) != 0);
    }
    if (f.is_zero() || f.is_one()) {
      continue;
    }
    const target_spec t = target_spec::from_function(f);
    for (const dims d : {dims{2, 2}, dims{3, 2}, dims{2, 3}, dims{3, 3}}) {
      const lm_result a = solve_lm(t, cache.get(d), opt);
      const lm_result b = solve_lm_reachability(t, d, opt);
      ASSERT_EQ(a.status, b.status)
          << "f=" << f.to_binary_string() << " on " << d.str();
      if (a.status == lm_status::realizable) {
        EXPECT_TRUE(a.mapping->realizes(f));
        EXPECT_TRUE(b.mapping->realizes(f));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, EncodingAgreement, ::testing::Range(0, 4));

/// The dual problem (f^D via 8-connected paths) must be equisatisfiable with
/// the primal, and each side's decoded mapping (the dual's constants flipped)
/// must realize f. Both sides are encoded directly: solve_lm would only solve
/// the cheaper one.
TEST(LmSolver, DualProblemEquivalence) {
  lattice_info_cache cache;
  const lm_encode_options eo = complete_options().encode;
  for (const char* text :
       {"ab + c", "abc + a'b'", "ab + b'c + ac'", "abcd + a'b'cd'",
        "ab' + cd'"}) {
    const target_spec t = target_spec::parse(4, text);
    for (const dims d : {dims{2, 3}, dims{3, 3}, dims{3, 4}}) {
      const lattice_info& info = cache.get(d);
      const auto side_is_sat = [&](bool dual_side) {
        const lm_encoder encoder(t, info, dual_side, eo);
        sat::solver s;
        (void)s.add_cnf(encoder.formula());  // false: solve() says unsat
        const sat::solve_result verdict = s.solve();
        EXPECT_NE(verdict, sat::solve_result::unknown);
        if (verdict == sat::solve_result::sat) {
          EXPECT_TRUE(encoder.decode(s).realizes(t.function()))
              << (dual_side ? "dual" : "primal") << " decode failed for "
              << text << " on " << d.str();
        }
        return verdict == sat::solve_result::sat;
      };
      EXPECT_EQ(side_is_sat(false), side_is_sat(true))
          << text << " on " << d.str();
    }
  }
}

/// The degree rules are a *designed approximation*: for the 3-input
/// not-all-equal function (whose minimum ISOP has 3 products but whose
/// Minato ISOP has 4), they must not cause false UNSAT now that the exact
/// minimizer provides the minimum cover.
TEST(LmSolver, DegreeRulesWithMinimumCoverStaySoundOnNae) {
  const target_spec t = target_spec::parse(3, "ab' + ac' + a'b + a'c");
  EXPECT_EQ(t.num_products(), 3u);  // exact minimizer found the 3-cube cover
  lattice_info_cache cache;
  lm_options with_rules;  // defaults: degree rules on
  const lm_result r = solve_lm(t, cache.get({2, 3}), with_rules);
  EXPECT_EQ(r.status, lm_status::realizable);
}

TEST(LmSolver, StrictRulesCanRejectRealizableInstances) {
  // approx-[6] behavior: strict product realization may say UNSAT where the
  // complete encoding says SAT. Find one such case in a tiny sweep and also
  // confirm strict never claims SAT on an unrealizable instance.
  lattice_info_cache cache;
  lm_options strict = complete_options();
  strict.encode.strict_product_rules = true;
  const lm_options complete = complete_options();
  int strict_rejections = 0;
  for (int bits = 1; bits < 255; ++bits) {
    bf::truth_table f(3);
    for (int m = 0; m < 8; ++m) {
      f.set(static_cast<std::uint64_t>(m), ((bits >> m) & 1) != 0);
    }
    if (f.is_zero() || f.is_one()) {
      continue;
    }
    const target_spec t = target_spec::from_function(f);
    const dims d{3, 3};
    const lm_result a = solve_lm(t, cache.get(d), strict);
    const lm_result b = solve_lm(t, cache.get(d), complete);
    if (a.status == lm_status::realizable) {
      EXPECT_EQ(b.status, lm_status::realizable);
      EXPECT_TRUE(a.mapping->realizes(f));
    } else if (b.status == lm_status::realizable) {
      ++strict_rejections;
    }
  }
  EXPECT_GT(strict_rejections, 0)
      << "strict rules should be a real restriction";
}

TEST(ReachEncoding, AgreesOnDegenerateLattices) {
  const target_spec t = target_spec::parse(2, "ab");
  lm_options opt = complete_options();
  EXPECT_EQ(solve_lm_reachability(t, {2, 1}, opt).status,
            lm_status::realizable);
  EXPECT_EQ(solve_lm_reachability(t, {1, 1}, opt).status,
            lm_status::unrealizable);
  const target_spec s = target_spec::parse(2, "a + b");
  EXPECT_EQ(solve_lm_reachability(s, {1, 2}, opt).status,
            lm_status::realizable);
}

/// g over inputs 0..2 placed on inputs pos[0..2] of a 5-input function; the
/// other two inputs are unused.
bf::truth_table embed5(const bf::truth_table& g, const std::array<int, 3>& pos) {
  bf::truth_table f(5);
  for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
    std::uint64_t gm = 0;
    for (int k = 0; k < 3; ++k) {
      gm |= ((m >> pos[static_cast<std::size_t>(k)]) & 1) << k;
    }
    f.set(m, g.get(gm));
  }
  return f;
}

/// Brute-force reference sharing no code with the encoders: does some wiring
/// of d's cells from {0, 1} and the literals of t's ISOP (the paper's TL)
/// pass the BFS oracle?
bool some_wiring_realizes(const target_spec& t, const dims& d) {
  using lattice::cell_assign;
  std::vector<cell_assign> tl = {cell_assign::zero(), cell_assign::one()};
  for (const bf::cube& c : t.sop().cubes()) {
    for (const bf::literal l : c.literals()) {
      const cell_assign a = cell_assign::lit(l.variable, l.negated);
      if (std::find(tl.begin(), tl.end(), a) == tl.end()) {
        tl.push_back(a);
      }
    }
  }
  const auto cells = static_cast<std::size_t>(d.size());
  std::vector<std::size_t> pick(cells, 0);
  lattice::lattice_mapping m(d, t.num_vars());
  while (true) {
    for (std::size_t c = 0; c < cells; ++c) {
      m.cells()[c] = tl[pick[c]];
    }
    if (m.realizes(t.function())) {
      return true;
    }
    std::size_t c = 0;
    while (c < cells && ++pick[c] == tl.size()) {
      pick[c++] = 0;
    }
    if (c == cells) {
      return false;
    }
  }
}

TEST(SupportProjection, PaddedTargetsAgreeWithBruteForce) {
  lm_options opt;
  opt.encode.use_degree_rules = false;  // a heuristic: may disagree by design
  const std::array<std::array<int, 3>, 3> placements = {
      {{0, 1, 2}, {2, 3, 4}, {4, 0, 2}}};
  lattice_info_cache cache;
  int realizable = 0;
  int unrealizable = 0;
  for (const char* text : {"ab + c", "ab + a'c", "ab + bc + ac", "a'b'c"}) {
    const bf::truth_table g = bf::cover::parse(3, text).to_truth_table();
    for (const auto& pos : placements) {
      const target_spec t = target_spec::from_function(embed5(g, pos));
      ASSERT_EQ(t.function().support().size(), 3u);
      lm_session_pool pool(t, opt.encode, default_lm_solver_options());
      lm_options pooled = opt;
      pooled.sessions = &pool;
      for (int rows = 1; rows <= 6; ++rows) {
        for (int cols = 1; rows * cols <= 6; ++cols) {
          const dims d{rows, cols};
          const bool expected = some_wiring_realizes(t, d);
          (expected ? realizable : unrealizable) += 1;
          for (const lm_options* o : {&opt, &pooled}) {
            const lm_result r = solve_lm(t, cache.get(d), *o);
            EXPECT_EQ(r.status, expected ? lm_status::realizable
                                         : lm_status::unrealizable)
                << text << " at " << pos[0] << pos[1] << pos[2] << " on "
                << d.str() << (o == &pooled ? " (session)" : " (one-shot)");
          }
        }
      }
    }
  }
  EXPECT_GT(realizable, 0);
  EXPECT_GT(unrealizable, 0);
}

TEST(SupportProjection, PaddedEncodingHasOneValueVariablePerSupportEntry) {
  // Without helper facts and rules, the variables are exactly the mapping
  // variables, the value variables and one selector per (ON entry, path).
  lm_encode_options eo;
  eo.use_degree_rules = false;
  eo.use_helper_facts = false;
  const bf::truth_table g = bf::cover::parse(3, "ab + a'c").to_truth_table();
  const target_spec t = target_spec::from_function(embed5(g, {3, 0, 4}));
  lattice_info_cache cache;
  const lattice_info& info = cache.get({3, 2});
  const lm_encoder enc(t, info, /*dual_side=*/false, eo);
  const std::uint64_t cells = 6;
  const std::uint64_t tl = build_target_literals(t, false, eo).size();
  const std::uint64_t value_vars = cells * 8;  // 2^|support|, not 2^5
  EXPECT_EQ(enc.stats().num_vars,
            cells * tl + value_vars + g.count_ones() * info.paths_4tb.size());
}

TEST(SupportProjection, FullSupportEncodingIsUnchanged) {
  // b12_00 (full support) at 3x5, primal side, scratch: the size measured
  // before the projection existed, so full-support CNFs stay identical.
  const target_spec t = instances::make_table2_instance("b12_00");
  ASSERT_EQ(t.function().support().size(),
            static_cast<std::size_t>(t.num_vars()));
  lattice_info_cache cache;
  const lm_encoder enc(t, cache.get({3, 5}), /*dual_side=*/false, {});
  EXPECT_EQ(enc.stats().num_vars, 1755u);
  EXPECT_EQ(enc.stats().num_clauses, 15088u);
}

TEST(SupportEntries, ListsOneRepresentativePerTlPattern) {
  using lattice::cell_assign;
  // f = b + d' over 4 inputs: TL mentions b and d only.
  const bf::truth_table f = bf::cover::parse(4, "b + d'").to_truth_table();
  const std::vector<cell_assign> tl = {cell_assign::zero(), cell_assign::one(),
                                       cell_assign::lit(1, false),
                                       cell_assign::lit(3, true)};
  EXPECT_EQ(support_entries(f, tl),
            (std::vector<std::uint64_t>{0b0000, 0b0010, 0b1000, 0b1010}));
  // An all-literal TL gives the identity table.
  std::vector<cell_assign> all = tl;
  for (const int v : {0, 2}) {
    all.push_back(cell_assign::lit(v, false));
  }
  const std::vector<std::uint64_t> identity = support_entries(f, all);
  ASSERT_EQ(identity.size(), 16u);
  for (std::uint64_t m = 0; m < 16; ++m) {
    EXPECT_EQ(identity[m], m);
  }
  // A TL that misses a variable f depends on would merge entries f tells
  // apart.
  EXPECT_THROW((void)support_entries(f, {tl.begin(), tl.end() - 1}),
               check_error);
}

}  // namespace
}  // namespace janus::lm
