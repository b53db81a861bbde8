// Tests for the exact two-level minimizer (QM primes + unate covering).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_set>

#include "bf/espresso.hpp"
#include "bf/exact_min.hpp"
#include "instances/table2.hpp"
#include "util/rng.hpp"

namespace janus::bf {
namespace {

truth_table random_table(rng& r, int n, double density = 0.5) {
  truth_table t(n);
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
    t.set(m, r.next_bool(density));
  }
  return t;
}

/// Reference: brute-force check that a cube is a prime implicant of f.
bool is_prime_of(const cube& c, const truth_table& f) {
  if (!c.to_truth_table(f.num_vars()).implies(f)) {
    return false;
  }
  for (const literal l : c.literals()) {
    cube wider = c;
    wider.drop_variable(l.variable);
    if (wider.to_truth_table(f.num_vars()).implies(f)) {
      return false;
    }
  }
  return true;
}

/// Reference: minimum cover size by brute force over prime subsets (tiny n).
std::size_t brute_minimum_cover(const truth_table& f) {
  const auto primes = all_primes(f);
  EXPECT_TRUE(primes.has_value());
  const std::size_t p = primes->size();
  for (std::size_t k = 0; k <= p; ++k) {
    // Try all subsets of size k.
    std::vector<bool> select(p, false);
    std::fill(select.end() - static_cast<std::ptrdiff_t>(k), select.end(), true);
    do {
      truth_table u(f.num_vars());
      for (std::size_t i = 0; i < p; ++i) {
        if (select[i]) {
          u |= (*primes)[i].to_truth_table(f.num_vars());
        }
      }
      if (u == f) {
        return k;
      }
    } while (std::next_permutation(select.begin(), select.end()));
  }
  return p;
}

/// Reference: the hash-set Quine–McCluskey generator that all_primes
/// replaced, verbatim. Its prime order is the one the covering solver's tie
/// breaks were tuned against.
struct cube_hash {
  std::size_t operator()(const cube& c) const noexcept {
    std::uint64_t h = (static_cast<std::uint64_t>(c.pos_mask()) << 32) |
                      c.neg_mask();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

std::optional<std::vector<cube>> reference_all_primes(
    const truth_table& f, std::size_t max_primes = 200'000) {
  const int n = f.num_vars();
  std::vector<cube> primes;
  if (f.is_zero()) {
    return primes;
  }
  if (f.is_one()) {
    primes.push_back(cube::one());
    return primes;
  }

  // Quine–McCluskey: start from onset minterms, merge cubes that differ in
  // exactly one variable's polarity, level by level.
  std::unordered_set<cube, cube_hash> current;
  for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
    if (!f.get(m)) {
      continue;
    }
    cube c;
    for (int v = 0; v < n; ++v) {
      c.add_literal(v, ((m >> v) & 1) == 0);
    }
    current.insert(c);
  }

  while (!current.empty()) {
    if (current.size() > max_primes) {
      return std::nullopt;
    }
    std::unordered_set<cube, cube_hash> next;
    std::unordered_set<cube, cube_hash> merged;
    for (const cube& c : current) {
      // The cube's variables in ascending order, as c.literals() lists
      // them, without allocating a vector per cube.
      for (std::uint32_t vars = c.pos_mask() | c.neg_mask(); vars != 0;
           vars &= vars - 1) {
        const int v = std::countr_zero(vars);
        cube partner = c;
        partner.add_literal(v, !c.has_literal(v, /*negated=*/true));
        if (current.count(partner) != 0) {
          merged.insert(c);
          cube wider = c;
          wider.drop_variable(v);
          next.insert(wider);
          if (next.size() > max_primes) {
            return std::nullopt;
          }
        }
      }
    }
    for (const cube& c : current) {
      if (merged.count(c) == 0) {
        primes.push_back(c);
        if (primes.size() > max_primes) {
          return std::nullopt;
        }
      }
    }
    current = std::move(next);
  }
  return primes;
}

TEST(AllPrimes, ConstantFunctions) {
  const auto none = all_primes(truth_table(3));
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  const auto taut = all_primes(truth_table::ones(3));
  ASSERT_TRUE(taut.has_value());
  ASSERT_EQ(taut->size(), 1u);
  EXPECT_TRUE((*taut)[0].is_one());
}

TEST(AllPrimes, EveryReturnedCubeIsPrimeAndAllPrimesAreFound) {
  rng r(51);
  for (int iter = 0; iter < 20; ++iter) {
    const truth_table f = random_table(r, 4);
    if (f.is_zero() || f.is_one()) {
      continue;
    }
    const auto primes = all_primes(f);
    ASSERT_TRUE(primes.has_value());
    for (const cube& c : *primes) {
      EXPECT_TRUE(is_prime_of(c, f));
    }
    // Completeness: brute-force enumerate all cubes over 4 vars (3^4 = 81)
    // and check that every prime is present.
    int expected = 0;
    for (int code = 0; code < 81; ++code) {
      cube c;
      int x = code;
      for (int v = 0; v < 4; ++v) {
        const int tri = x % 3;
        x /= 3;
        if (tri == 1) {
          c.add_literal(v, false);
        } else if (tri == 2) {
          c.add_literal(v, true);
        }
      }
      if (is_prime_of(c, f)) {
        ++expected;
        EXPECT_NE(std::find(primes->begin(), primes->end(), c), primes->end())
            << "missing prime " << c.str(4);
      }
    }
    EXPECT_EQ(static_cast<int>(primes->size()), expected);
  }
}

TEST(AllPrimes, OrderMatchesReferenceGenerator) {
  const auto same_order = [](const truth_table& f) {
    const auto got = all_primes(f);
    return got.has_value() && got == reference_all_primes(f);
  };
  rng r(55);
  for (int n = 1; n <= 8; ++n) {
    // 500 random tables over a spread of densities, each with its dual.
    for (int iter = 0; iter < 500; ++iter) {
      const truth_table f = random_table(r, n, (iter % 9 + 1) / 10.0);
      ASSERT_TRUE(same_order(f)) << "n " << n << ", iter " << iter;
      ASSERT_TRUE(same_order(f.dual())) << "n " << n << ", iter " << iter;
    }
    // Every symmetric function: f(m) depends only on the weight of m.
    for (std::uint32_t weights = 0; weights < (1u << (n + 1)); ++weights) {
      truth_table f(n);
      for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
        f.set(m, ((weights >> std::popcount(m)) & 1) != 0);
      }
      ASSERT_TRUE(same_order(f)) << "n " << n << ", weights " << weights;
      ASSERT_TRUE(same_order(f.dual())) << "n " << n << ", weights " << weights;
    }
  }
  // Past 3^12 codes the flags live in a hash map: a sparse 13-input table
  // with some mergeable cubes next to isolated minterms.
  truth_table sparse(13);
  for (int i = 0; i < 60; ++i) {
    sparse.set(r.next_below(sparse.num_minterms()), true);
  }
  for (const char* text : {"abcdefghij", "a'c'e'g'i'k'm'", "bdf'hjl'"}) {
    sparse |= cover::parse(13, text).to_truth_table();
  }
  EXPECT_TRUE(same_order(sparse));
}

TEST(ExactMinimize, KnownMinimaForClassicFunctions) {
  // Not-all-equal(3): heuristic local minimum is 4 products; true minimum 3.
  const cover nae = cover::parse(3, "ab' + ac' + a'b + a'c");
  const auto min_nae = exact_minimize(nae.to_truth_table());
  ASSERT_TRUE(min_nae.has_value());
  EXPECT_EQ(min_nae->num_cubes(), 3u);

  // XOR of 3 variables needs all 4 odd-parity minterms.
  truth_table parity(3);
  for (std::uint64_t m = 0; m < 8; ++m) {
    parity.set(m, __builtin_popcountll(m) % 2 == 1);
  }
  const auto min_parity = exact_minimize(parity);
  ASSERT_TRUE(min_parity.has_value());
  EXPECT_EQ(min_parity->num_cubes(), 4u);

  // Majority(3) = ab + ac + bc.
  const cover maj = cover::parse(3, "ab + ac + bc");
  const auto min_maj = exact_minimize(maj.to_truth_table());
  ASSERT_TRUE(min_maj.has_value());
  EXPECT_EQ(min_maj->num_cubes(), 3u);
}

TEST(ExactMinimize, MatchesBruteForceOnRandomSmallFunctions) {
  rng r(52);
  for (int iter = 0; iter < 30; ++iter) {
    const truth_table f = random_table(r, 4);
    if (f.is_zero() || f.is_one()) {
      continue;
    }
    const auto min = exact_minimize(f);
    ASSERT_TRUE(min.has_value());
    EXPECT_EQ(min->to_truth_table(), f);
    EXPECT_EQ(min->num_cubes(), brute_minimum_cover(f)) << "iter " << iter;
  }
}

TEST(ExactMinimize, TiedMinimumCoverFollowsPrimeOrder) {
  // dc1_00 has tied 4-product minimum covers. The prime order picks this
  // one; a sorted prime list would pick a'bc' + a'b'c + a'd' + ad instead.
  const auto t = instances::make_table2_instance("dc1_00");
  EXPECT_EQ(t.sop().str(), "a'bc' + b'cd + a'd' + ad");
}

TEST(ExactMinimize, NeverWorseThanEspresso) {
  rng r(53);
  for (int iter = 0; iter < 15; ++iter) {
    const truth_table f = random_table(r, 6);
    const auto exact = exact_minimize(f);
    ASSERT_TRUE(exact.has_value());
    const cover heuristic = espresso_lite(f);
    EXPECT_LE(exact->num_cubes(), heuristic.num_cubes()) << "iter " << iter;
    EXPECT_EQ(exact->to_truth_table(), f);
  }
}

TEST(ExactMinimize, RespectsWorkCaps) {
  rng r(54);
  const truth_table f = random_table(r, 8);
  exact_min_options tiny;
  tiny.max_primes = 1;
  EXPECT_FALSE(exact_minimize(f, tiny).has_value());
  // minimize() must still return a valid cover via the fallback.
  const cover fallback = minimize(f, tiny);
  EXPECT_EQ(fallback.to_truth_table(), f);
}

TEST(Minimize, HandlesConstants) {
  EXPECT_TRUE(minimize(truth_table(5)).empty());
  const cover one = minimize(truth_table::ones(5));
  ASSERT_EQ(one.num_cubes(), 1u);
  EXPECT_TRUE(one[0].is_one());
}

}  // namespace
}  // namespace janus::bf
