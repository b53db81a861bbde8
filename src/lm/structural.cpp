#include "lm/structural.hpp"

namespace janus::lm {

bool lengths_dominate(const std::vector<std::uint32_t>& length_counts,
                      const bf::cover& target_products) {
  // Matching longest first succeeds iff, for every length L, the products
  // needing at least L literals do not outnumber the paths of length >= L.
  std::vector<std::uint64_t> need(length_counts.size(), 0);
  for (const bf::cube& c : target_products.cubes()) {
    const auto len = static_cast<std::size_t>(c.num_literals());
    if (len >= need.size()) {
      need.resize(len + 1, 0);
    }
    ++need[len];
  }
  std::uint64_t needed = 0;
  std::uint64_t available = 0;
  for (std::size_t len = need.size(); len-- > 0;) {
    needed += need[len];
    if (len < length_counts.size()) {
      available += length_counts[len];
    }
    if (needed > available) {
      return false;
    }
  }
  return true;
}

bool structural_check(const target_spec& target, const lattice_info& info) {
  if (info.oversized) {
    // Too many paths to reason about; never exclude structurally.
    return true;
  }
  return lengths_dominate(info.paths_4tb.length_counts(), target.sop()) &&
         lengths_dominate(info.paths_8lr.length_counts(), target.dual_sop());
}

}  // namespace janus::lm
