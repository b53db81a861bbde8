// Exact two-level minimization: all primes (Quine–McCluskey) + minimum
// unate covering (branch and bound).
//
// The paper's pipeline assumes the ISOP of the target (and of its dual) has a
// *minimum number of products* — the structural check, the PS/DPS bounds and
// the degree rules are all keyed to that cover. A heuristic local minimum
// (e.g. 4 products for the 3-input not-all-equal function whose true minimum
// is 3) makes those steps reject realizable lattices. This module computes
// true minimum-product covers for the function sizes in the paper's suite,
// with explicit work caps; callers fall back to espresso-lite beyond them.
#pragma once

#include <cstdint>
#include <optional>

#include "bf/cover.hpp"
#include "bf/truth_table.hpp"

namespace janus::bf {

struct exact_min_options {
  std::size_t max_primes = 200'000;      ///< abort prime generation beyond this
  std::uint64_t max_bb_nodes = 500'000;  ///< abort branch & bound beyond this
};

/// All prime implicants of `f`, or nullopt when the cap is exceeded.
///
/// The order of the list is part of the contract: exact_minimize breaks ties
/// between minimum covers by it. Primes come out level by level (most
/// literals first), each level in the iteration order of the
/// std::unordered_set that Quine–McCluskey builds it in, every implicant
/// inserted once, in generation order. That order is the standard library's
/// (libstdc++ here), so a build against another library may list the primes
/// differently and pick other tied covers.
[[nodiscard]] std::optional<std::vector<cube>> all_primes(
    const truth_table& f, std::size_t max_primes = 200'000);

/// A minimum-product irredundant prime cover of `f`, or nullopt when a work
/// cap was exceeded, its cubes sorted by cover::sort_desc_by_literals.
///
/// Among tied minimum covers the choice follows the all_primes order; the
/// literal count plays no part. A greedy pass (take the first column, in
/// prime order, that covers the most uncovered minterms) seeds the
/// incumbent. Branch and bound then replaces it only with a strictly smaller
/// cover: it branches on the first uncovered minterm with the fewest primes
/// and tries that minterm's primes in prime order. So the result is the
/// greedy cover when that is minimum, else the first minimum cover in that
/// depth-first order.
[[nodiscard]] std::optional<cover> exact_minimize(
    const truth_table& f, const exact_min_options& options = {});

/// Best-effort minimization: exact when within caps, espresso-lite otherwise.
[[nodiscard]] cover minimize(const truth_table& f,
                             const exact_min_options& options = {});

}  // namespace janus::bf
