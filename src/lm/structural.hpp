// The structural check of Section III-A / III-B.
//
// Before any SAT call, JANUS rejects lattice candidates on cover statistics
// alone: every product of the target must be matchable to a *distinct* lattice
// product (path) with at least as many literals, and the same must hold for
// the duals. The paper's two worked rejections — f8x1 has too few products,
// f2x4 has too-short products for f = abcd + a'b'c'd' — both fall out of this
// matching. The same test, swept over lattice sizes from 1 upward, yields the
// initial lower bound (Section III-B).
#pragma once

#include "lm/lattice_info.hpp"
#include "lm/target.hpp"

namespace janus::lm {

/// Greedy matching: every target product length must be dominated by a
/// distinct lattice product length. `length_counts[L]` is the number of
/// lattice products (paths) of length L.
[[nodiscard]] bool lengths_dominate(
    const std::vector<std::uint32_t>& length_counts,
    const bf::cover& target_products);

/// Full structural check for the target on an m×n lattice (both views).
[[nodiscard]] bool structural_check(const target_spec& target,
                                    const lattice_info& info);

}  // namespace janus::lm
