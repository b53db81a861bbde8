// Target specification for synthesis: a function, its minimized ISOP, and the
// ISOP of its dual.
//
// JANUS consumes targets in exactly this shape (Section III-A of the paper):
// minimum-product ISOPs of f and f^D (bf::minimize) drive the structural
// check, the bounds, and the SAT encoding; the truth table drives the
// per-entry clauses and final verification.
#pragma once

#include <optional>
#include <string>

#include "bf/cover.hpp"
#include "bf/espresso.hpp"
#include "bf/truth_table.hpp"

namespace janus::lm {

class target_spec {
 public:
  target_spec() = default;

  /// Build from a completely specified function; minimizes f and f^D
  /// (the latter only when the caller has no `dual_sop` of it already).
  static target_spec from_function(const bf::truth_table& f,
                                   std::string name = "",
                                   std::optional<bf::cover> dual_sop = {});

  /// Build from an SOP cover (the function is the cover's truth table).
  static target_spec from_cover(const bf::cover& c, std::string name = "");

  /// Parse "ab'c + d" style text over `num_vars` variables a, b, c, …
  static target_spec parse(int num_vars, const std::string& text,
                           std::string name = "");

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int num_vars() const { return function_.num_vars(); }
  [[nodiscard]] const bf::truth_table& function() const { return function_; }
  [[nodiscard]] const bf::truth_table& dual_function() const { return dual_; }
  [[nodiscard]] const bf::cover& sop() const { return sop_; }
  [[nodiscard]] const bf::cover& dual_sop() const { return dual_sop_; }

  /// #pi — prime implicants in the ISOP of f.
  [[nodiscard]] std::size_t num_products() const { return sop_.num_cubes(); }
  [[nodiscard]] std::size_t num_dual_products() const {
    return dual_sop_.num_cubes();
  }

  /// δ — the degree of f; γ — the degree of f^D.
  [[nodiscard]] int degree() const { return sop_.degree(); }
  [[nodiscard]] int dual_degree() const { return dual_sop_.degree(); }

  [[nodiscard]] bool is_constant() const {
    return function_.is_zero() || function_.is_one();
  }

  /// The same target with f and f^D swapped (used to pose the dual problem).
  [[nodiscard]] target_spec dual_spec() const;

 private:
  std::string name_;
  bf::truth_table function_;
  bf::truth_table dual_;
  bf::cover sop_;
  bf::cover dual_sop_;
};

}  // namespace janus::lm
