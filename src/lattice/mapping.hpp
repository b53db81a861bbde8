// Lattice mappings: an assignment of literals/constants to lattice cells,
// plus ground-truth evaluation and verification.
//
// Evaluation deliberately does NOT reuse the path enumerator: for each input
// minterm we switch cells on/off and run a BFS from the top plate. Solutions
// produced by the SAT pipeline are always re-checked against this independent
// oracle, so an encoder bug cannot silently produce "solutions".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bf/truth_table.hpp"
#include "lattice/dims.hpp"

namespace janus::lattice {

/// What a lattice cell's control input is wired to.
struct cell_assign {
  enum class kind : std::uint8_t {
    constant_zero,
    constant_one,
    positive,  ///< variable `var`
    negative,  ///< complement of variable `var`
  };

  kind k = kind::constant_zero;
  std::uint8_t var = 0;

  static cell_assign zero() { return {kind::constant_zero, 0}; }
  static cell_assign one() { return {kind::constant_one, 0}; }
  static cell_assign lit(int v, bool negated) {
    return {negated ? kind::negative : kind::positive,
            static_cast<std::uint8_t>(v)};
  }

  [[nodiscard]] bool is_constant() const {
    return k == kind::constant_zero || k == kind::constant_one;
  }

  /// Value of the cell for the given input minterm.
  [[nodiscard]] bool eval(std::uint64_t minterm) const {
    switch (k) {
      case kind::constant_zero: return false;
      case kind::constant_one: return true;
      case kind::positive: return ((minterm >> var) & 1) != 0;
      case kind::negative: return ((minterm >> var) & 1) == 0;
    }
    return false;
  }

  /// Complement the constants only (used when a solution was found on the
  /// dual problem; literals stay, constants flip — see lm/encoding.cpp).
  [[nodiscard]] cell_assign with_constants_flipped() const {
    if (k == kind::constant_zero) {
      return one();
    }
    if (k == kind::constant_one) {
      return zero();
    }
    return *this;
  }

  /// "a", "b'", "0", "1" with default names.
  [[nodiscard]] std::string str(const std::vector<std::string>& names) const;

  friend bool operator==(const cell_assign&, const cell_assign&) = default;
};

/// A fully assigned m×n lattice realizing a single-output function.
class lattice_mapping {
 public:
  lattice_mapping() = default;
  lattice_mapping(dims d, int num_target_vars);

  [[nodiscard]] const dims& grid() const { return dims_; }
  [[nodiscard]] int num_target_vars() const { return num_vars_; }
  [[nodiscard]] int size() const { return dims_.size(); }

  [[nodiscard]] cell_assign at(int r, int c) const {
    return cells_[static_cast<std::size_t>(dims_.cell(r, c))];
  }
  void set(int r, int c, cell_assign a) {
    cells_[static_cast<std::size_t>(dims_.cell(r, c))] = a;
  }
  [[nodiscard]] const std::vector<cell_assign>& cells() const { return cells_; }
  [[nodiscard]] std::vector<cell_assign>& cells() { return cells_; }

  /// Lattice output (top–bottom 4-connectivity) for one input minterm.
  [[nodiscard]] bool eval(std::uint64_t minterm) const;

  /// Output of the dual view (left–right 8-connectivity) for one minterm.
  [[nodiscard]] bool eval_dual(std::uint64_t minterm) const;

  /// Realized function over all 2^num_target_vars minterms.
  [[nodiscard]] bf::truth_table realized_function() const;

  /// True when the lattice realizes exactly `target`.
  [[nodiscard]] bool realizes(const bf::truth_table& target) const;

  /// Multi-line grid rendering, e.g. for the paper's figures.
  [[nodiscard]] std::string str() const;
  [[nodiscard]] std::string str(const std::vector<std::string>& names) const;

  // ---- composition helpers (used by DS, IPS/IDPS, JANUS-MF) --------------

  /// This lattice with row `r` duplicated (function-preserving).
  [[nodiscard]] lattice_mapping with_row_duplicated(int r) const;

  /// This lattice with column `c` duplicated (function-preserving).
  [[nodiscard]] lattice_mapping with_column_duplicated(int c) const;

  /// Grow to `target_rows` by duplicating the last row (function-preserving).
  [[nodiscard]] lattice_mapping padded_to_rows(int target_rows) const;

  friend bool operator==(const lattice_mapping&, const lattice_mapping&) = default;

 private:
  dims dims_{};
  int num_vars_ = 0;
  std::vector<cell_assign> cells_;
};

/// Place `block` into `host` with its top-left cell at (r0, c0).
void blit(lattice_mapping& host, const lattice_mapping& block, int r0, int c0);

/// A multi-output lattice: one shared grid, one column range per output
/// (ranges separated by isolation columns; output i is the top–bottom
/// connectivity within its column span, as in JANUS-MF).
class multi_lattice_mapping {
 public:
  multi_lattice_mapping() = default;

  /// Build by concatenating per-output lattices with 0-isolation columns,
  /// padding all blocks to the maximum row count ("straight-forward" merge;
  /// unspecified padding cells are constant 1 per the paper). The merged
  /// grid of two parts is the paper's side-by-side composition realizing
  /// f_a + f_b (DS, pcircuit-[9]).
  static multi_lattice_mapping merge(const std::vector<lattice_mapping>& parts);

  [[nodiscard]] const lattice_mapping& grid() const { return grid_; }
  [[nodiscard]] int num_outputs() const { return static_cast<int>(spans_.size()); }
  [[nodiscard]] std::pair<int, int> span(int output) const {
    return spans_[static_cast<std::size_t>(output)];
  }
  [[nodiscard]] int size() const { return grid_.size(); }

  [[nodiscard]] bool eval(int output, std::uint64_t minterm) const;
  [[nodiscard]] bf::truth_table realized_function(int output) const;
  [[nodiscard]] bool realizes(const std::vector<bf::truth_table>& targets) const;

 private:
  lattice_mapping grid_;
  std::vector<std::pair<int, int>> spans_;  // [first_col, last_col] inclusive
};

}  // namespace janus::lattice
