// Irredundant path enumeration — the lattice function and its dual.
//
// The products of the m×n lattice function are exactly the *minimal*
// 4-connected top–bottom connectors; the products of its dual are the minimal
// 8-connected left–right connectors (Altun & Riedel 2012). A connector is
// minimal iff it is a self-avoiding path that (a) touches the source plate
// only at its first cell and the sink plate only at its last, and (b) never
// has two non-consecutive cells adjacent (no shortcut exists). This module
// enumerates those paths; Table I of the paper is reproduced exactly from it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "lattice/dims.hpp"

namespace janus::lattice {

/// Which family of paths: the lattice function itself or its dual.
enum class connectivity : std::uint8_t {
  four_top_bottom,   ///< 4-connected, top plate to bottom plate
  eight_left_right,  ///< 8-connected, left plate to right plate
};

/// One irredundant path: cell indices in traversal order.
struct path {
  std::vector<std::uint16_t> cells;

  [[nodiscard]] int length() const { return static_cast<int>(cells.size()); }
};

/// The cells of one path, in traversal order.
using path_cells = std::span<const std::uint16_t>;

/// A list of paths stored flat: the cells of every path in one array, plus
/// one offset per path. Path i is cells [offsets[i], offsets[i + 1]).
class path_list {
 public:
  void push_back(path_cells cells);

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  /// Cells of all paths together.
  [[nodiscard]] std::size_t total_cells() const { return cells_.size(); }
  [[nodiscard]] path_cells operator[](std::size_t i) const {
    return path_cells(cells_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  /// Iterates the paths as cell spans, in insertion order.
  class iterator {
   public:
    iterator(const path_list* list, std::size_t i) : list_(list), i_(i) {}
    path_cells operator*() const { return (*list_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const path_list* list_;
    std::size_t i_;
  };
  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, size()}; }

 private:
  std::vector<std::uint16_t> cells_;
  std::vector<std::uint32_t> offsets_{0};
};

/// Visit every irredundant path once. Return false from the visitor to abort
/// enumeration early (enumerate_paths then returns false).
bool enumerate_paths(const dims& d, connectivity conn,
                     const std::function<bool(const path&)>& visit);

/// All irredundant paths in enumeration order, stored flat.
[[nodiscard]] path_list list_paths(const dims& d, connectivity conn);

/// Number of irredundant paths (number of products of the lattice function
/// for four_top_bottom, of its dual for eight_left_right).
[[nodiscard]] std::uint64_t count_paths(const dims& d, connectivity conn);

/// The paper's Table I entry for an m×n lattice: products of f_mxn and of its
/// dual, hard-coded from the paper for 2 <= m,n <= 8 (used to validate the
/// enumerator).
struct table1_entry {
  std::uint64_t function_products;
  std::uint64_t dual_products;
};
[[nodiscard]] table1_entry paper_table1(int rows, int cols);

}  // namespace janus::lattice
