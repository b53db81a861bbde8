// Literal-indexed occurrence lists.
//
// Support structure for bounded variable elimination (sat/simplify.hpp):
// the simplifier walks "which clauses contain literal l" queries while it
// picks and eliminates variables.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/types.hpp"

namespace janus::sat {

/// For each literal, the clause handles (arena refs, as the simplifier
/// stores them) of the clauses that contain it. Entries are never removed
/// mid-round: a deleted clause stays listed and is skipped by the reader.
class occurrence_index {
 public:
  /// Drop all lists and size the index for `num_vars` variables.
  void reset(int num_vars) {
    lists_.clear();
    lists_.resize(static_cast<std::size_t>(num_vars) * 2);
  }

  /// Record that the clause `clause` contains literal `l`.
  void add(lit l, std::uint32_t clause) {
    lists_[static_cast<std::size_t>(l.code())].push_back(clause);
  }

  [[nodiscard]] const std::vector<std::uint32_t>& operator[](lit l) const {
    return lists_[static_cast<std::size_t>(l.code())];
  }

 private:
  std::vector<std::vector<std::uint32_t>> lists_;  // indexed by lit code
};

}  // namespace janus::sat
